package gdp

// The run loop's register accessors. Each reads or writes its bytes
// little-endian at a masked index into a fixed-size array: the compiler
// merges them into one MOVL (MOVQ for an access register), proves the index
// in bounds, and emits no bounds check. CI's smoke job holds that:
// `go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/gdp` must report
// no line of this file.

import (
	"encoding/binary"

	"repro/internal/isa"
	"repro/internal/obj"
)

// regFile is the data-register bytes of a context's data part; aregFile is
// its access registers' raw slots in the access part. The prime established
// that both windows are long enough, so converting them cannot fail.
type (
	regFile  = [isa.NumDataRegs * 4]byte
	aregFile = [isa.NumAccessRegs * obj.ADSlotSize]byte
)

// regMask and aregMask fold a register number into its file. Predecode
// already bounds every register below the file's size (a power of two);
// the mask is what lets the compiler see that.
const (
	regMask  = isa.NumDataRegs - 1
	aregMask = isa.NumAccessRegs - 1
)

func regGet(rf *regFile, r uint8) uint32 {
	i := uint(r&regMask) * 4
	return uint32(rf[i]) | uint32(rf[i+1])<<8 | uint32(rf[i+2])<<16 | uint32(rf[i+3])<<24
}

func regSet(rf *regFile, r uint8, v uint32) {
	i := uint(r&regMask) * 4
	rf[i], rf[i+1], rf[i+2], rf[i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// aregWord reads access register r's slot as the raw word Ctx.AReg
// decodes: zero for an empty register. Eight bytes OR-ed together would
// not fit the inlining budget; the tail slice compiles to the same MOVQ.
func aregWord(ar *aregFile, r uint8) uint64 {
	i := uint(r&aregMask) * obj.ADSlotSize
	return binary.LittleEndian.Uint64(ar[i:])
}
