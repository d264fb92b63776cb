package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// holesSize is FuzzHolesReadZero's memory: two chunks and the head of a
// third, so segments are placed across both chunk edges.
const holesSize = 2*chunkSize + 64<<10

// maxHoleSteps bounds an input of FuzzHolesReadZero: every step checks
// every hole, so a mutator's long input would take seconds an exec.
const maxHoleSteps = 512

// FuzzHolesReadZero holds Memory to its invariant: every hole reads zero
// through every chunk that holds a copy of it, its base's chunk and the
// previous chunk's overhang. An input is a sequence of 4-byte steps on a
// memory of several chunks, each an op byte, a byte a and a 16-bit b; op%4
// picks
//
//   - (0, 1) Alloc of a segment near MaxSegment (a even) or of at most 4 KB;
//   - (2) a write of non-zero bytes through a live segment's window;
//   - (3) a free of a live segment: Free (b%3 == 0), FreePrefix by the prefix
//     the segment was written in (1), or FreePrefix by a length past its
//     end (2).
//
// The holes are checked after every step, and an input runs at most
// maxHoleSteps steps. The seeds fill the memory, write into every segment,
// free twenty by the three frees in turn, and fill the holes again while
// writing and freeing more; the second makes every other segment small.
func FuzzHolesReadZero(f *testing.F) {
	var ops []byte
	add := func(op, a byte, b uint16) { ops = binary.LittleEndian.AppendUint16(append(ops, op, a), b) }
	for _, small := range []byte{0, 1} {
		ops = ops[:0]
		for i := 0; i < 40; i++ {
			add(0, byte(i)*2+small*byte(i%2), uint16(i*37))
		}
		for i := 0; i < 40; i++ {
			add(2|byte(i)<<2, byte(i), uint16(i*3301))
		}
		for i := 0; i < 20; i++ {
			add(3, byte(i), uint16(i))
		}
		for i := 0; i < 30; i++ {
			add(1, byte(i), uint16(i*53))
			add(2|0xfc, byte(i*7), uint16(i*4099))
		}
		for i := 0; i < 30; i++ {
			add(3, byte(i*5), uint16(i+1))
		}
		f.Add(bytes.Clone(ops))
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(holesSize)
		var live []Extent
		ops = ops[:min(len(ops), 4*maxHoleSteps)]
		for step := 0; len(ops) >= 4; step, ops = step+1, ops[4:] {
			op, a, b := ops[0], ops[1], binary.LittleEndian.Uint16(ops[2:4])
			var what string
			switch {
			case op%4 < 2 || len(live) == 0:
				n := 1 + uint32(b)%4096
				if a%2 == 0 {
					n = MaxSegment - uint32(b)%1024
				}
				what = fmt.Sprintf("alloc %d", n)
				if e, err := m.Alloc(n); err == nil {
					live = append(live, e)
				}
			case op%4 == 2:
				e := live[int(a)%len(live)]
				w := m.Window(e)[uint32(b)*2%e.Len:]
				w = w[:min(len(w), 1+int(op>>2)*64)]
				what = fmt.Sprintf("write %d bytes into %+v", len(w), e)
				for i := range w {
					w[i] = a | 1
				}
			default:
				i := int(a) % len(live)
				e := live[i]
				var err error
				switch b % 3 {
				case 0:
					what = fmt.Sprintf("free %+v", e)
					err = m.Free(e)
				case 1:
					dirty := writtenPrefix(m.Window(e))
					what = fmt.Sprintf("free %+v by its %d-byte written prefix", e, dirty)
					err = m.FreePrefix(e, dirty)
				default:
					what = fmt.Sprintf("free %+v by a prefix of %d bytes", e, e.Len+uint32(b))
					err = m.FreePrefix(e, e.Len+uint32(b))
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, what, err)
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := holesReadZero(m); err != nil {
				t.Fatalf("step %d, after %s: %v", step, what, err)
			}
		}
	})
}

// writtenPrefix is the length of w up to and including its last non-zero
// byte.
func writtenPrefix(w []byte) uint32 {
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	return uint32(n)
}

// zeroChunk is as long as the most of a hole one chunk holds.
var zeroChunk [chunkSize + MaxSegment]byte

// holesReadZero reports a hole that some chunk holding a copy of it does not
// read as zero there, with the hole's last non-zero byte in that copy.
func holesReadZero(m *Memory) error {
	for _, h := range m.free {
		for i, c := range m.chunks {
			lo := Addr(i) << chunkShift
			from, to := max(h.Base, lo), min(h.End(), lo+Addr(len(c)))
			if from >= to {
				continue
			}
			if p := c[from-lo : to-lo]; !bytes.Equal(p, zeroChunk[:len(p)]) {
				return fmt.Errorf("hole %+v reads non-zero in chunk %d at %d", h, i, from+Addr(writtenPrefix(p))-1)
			}
		}
	}
	return nil
}
