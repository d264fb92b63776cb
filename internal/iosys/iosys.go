// Package iosys is iMAX's decentralised, device-independent I/O system
// (§6.3 of the paper). There is no central I/O controller, no master
// device list, no case statement to extend: "Each instance of an I/O
// device may have a distinct implementation. The user interacts with each
// device identically but the code is specific to the device."
//
// A device is simply a domain instance whose first entry points implement
// the common device-independent specification; "any additional operations
// are more device specific". Creating a new kind of device means writing
// a new handler and instantiating a domain — no system code changes,
// which is the paper's point: dynamic package creation makes the I/O
// system an open set.
//
// Common specification (entries 0..2):
//
//	entry 0  WRITE   a1 = buffer object, r1 = offset, r2 = length; r0 ← bytes written
//	entry 1  READ    a1 = buffer object, r1 = offset, r2 = max;    r0 ← bytes read
//	entry 2  STATUS  r0 ← class<<8 | flags
//
// Class-dependent extensions used by the provided devices:
//
//	tape:  entry 3 REWIND, entry 4 MARK (write end-of-file marker)
//	disk:  entry 3 SEEK (r1 = block number)
package iosys

import (
	"repro/internal/domain"
	"repro/internal/obj"
	"repro/internal/process"
	"repro/internal/vtime"
)

// Common entry points of the device-independent specification.
const (
	EntryWrite  = 0
	EntryRead   = 1
	EntryStatus = 2
)

// Class-specific entries.
const (
	EntryTapeRewind = 3
	EntryTapeMark   = 4
	EntryDiskSeek   = 3
)

// Device classes reported in the high byte of STATUS.
const (
	ClassConsole = 1
	ClassTape    = 2
	ClassDisk    = 3
)

// Status flag bits.
const (
	FlagReady = 1 << 0
	FlagEOF   = 1 << 1 // tape hit an end-of-file marker
	FlagFull  = 1 << 2 // medium exhausted
)

// Device is the Go-side view of a device instance, used by harness code;
// in-VM code calls the same operations through the device's domain.
type Device interface {
	// Write transfers p to the device and reports bytes accepted.
	Write(p []byte) (int, error)
	// Read fills p from the device and reports bytes delivered.
	Read(p []byte) (int, error)
	// Status reports class<<8 | flags.
	Status() uint32
}

// transferCycles models the per-byte device cost.
func transferCycles(n int) vtime.Cycles {
	return vtime.Cycles(50 + 2*n)
}

// handlerFor builds a native domain handler implementing the common
// specification over dev, with extra handling class-specific entries
// (extra may be nil). The handler moves bytes between the caller's buffer
// object and the device.
func handlerFor(dev Device, extra func(env *domain.Env, entry uint32) (bool, *obj.Fault)) domain.Handler {
	return func(env *domain.Env, entry uint32) *obj.Fault {
		switch entry {
		case EntryWrite, EntryRead:
			var c process.Ctx
			env.Procs.OpenContext(env.Ctx, obj.RightRead, &c)
			buf, off, n := c.AReg(1), c.Reg(1), c.Reg(2)
			if f := c.Fault(); f != nil {
				return f
			}
			var moved int
			if entry == EntryWrite {
				p, f := env.Table.ReadBytes(buf, off, n)
				if f != nil {
					return f
				}
				m, err := dev.Write(p)
				if err != nil {
					return obj.Faultf(obj.FaultOddity, buf, "device: %v", err)
				}
				moved = m
			} else {
				p := make([]byte, n)
				m, err := dev.Read(p)
				if err != nil {
					return obj.Faultf(obj.FaultOddity, buf, "device: %v", err)
				}
				if m > 0 {
					if f := env.Table.WriteBytes(buf, off, p[:m]); f != nil {
						return f
					}
				}
				moved = m
			}
			env.Clock.Charge(transferCycles(moved))
			c.SetReg(0, uint32(moved))
			return c.Fault()

		case EntryStatus:
			env.Clock.Charge(vtime.CostALU)
			var c process.Ctx
			env.Procs.OpenContext(env.Ctx, obj.RightWrite, &c)
			c.SetReg(0, dev.Status())
			return c.Fault()
		}
		if extra != nil {
			handled, f := extra(env, entry)
			if handled || f != nil {
				return f
			}
		}
		return obj.Faultf(obj.FaultBounds, obj.NilAD, "device entry %d not provided", entry)
	}
}

// Install creates the device's domain instance. entryCount must cover the
// largest entry the device answers; the common specification is always a
// subset.
func Install(doms *domain.Manager, heap obj.AD, dev Device,
	entryCount int, extra func(env *domain.Env, entry uint32) (bool, *obj.Fault)) (obj.AD, *obj.Fault) {
	if entryCount < 3 {
		entryCount = 3
	}
	return doms.CreateNative(heap, entryCount, handlerFor(dev, extra))
}
