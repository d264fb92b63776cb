package core

import (
	"testing"

	"repro/internal/domain"
	"repro/internal/gdp"
	"repro/internal/iosys"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/process"
)

// TestTransparentInterposition exercises the §4 extensibility claim: "any
// system interface can be mimicked by a user package. This makes it
// straightforward for a user to extend the system interface, trap certain
// system calls, or otherwise alter iMAX services."
//
// A user-written auditing domain presents the same entry points as a
// device and forwards every call to the real device, counting and
// length-capping writes. The client program is byte-for-byte the one that
// talks to the real device; only the capability it was handed differs.
func TestTransparentInterposition(t *testing.T) {
	im, err := Boot(Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	console := iosys.NewConsole()
	realDev, f := iosys.InstallConsole(im.Domains, im.Heap, console)
	if f != nil {
		t.Fatal(f)
	}

	// The interposer: same interface, user policy, forwarding via the
	// real capability held privately.
	writes := 0
	var totalBytes uint32
	const quota = 20
	auditDev, f := im.Domains.CreateNative(im.Heap, 3, func(env *domain.Env, entry uint32) *obj.Fault {
		if entry == iosys.EntryWrite {
			var c process.Ctx
			env.Procs.OpenContext(env.Ctx, obj.RightRead, &c)
			n := c.Reg(2)
			if f := c.Fault(); f != nil {
				return f
			}
			writes++
			if totalBytes+n > quota {
				return obj.Faultf(obj.FaultStorageClaim, obj.NilAD,
					"write quota exhausted")
			}
			totalBytes += n
		}
		// Forward to the real device by performing the same operation
		// against the privately held capability. (A VM interposer
		// would CALL the inner domain; a native one invokes its
		// handler through the same registry.)
		_, h, f := im.Domains.Entry(realDev, entry)
		if f != nil {
			return f
		}
		return h(env, entry)
	})
	if f != nil {
		t.Fatal(f)
	}

	client := func(dev obj.AD, text string) process.State {
		buf, f := im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(len(text))})
		if f != nil {
			t.Fatal(f)
		}
		if f := im.Table.WriteBytes(buf, 0, []byte(text)); f != nil {
			t.Fatal(f)
		}
		prog, f := im.Domains.CreateCode(im.Heap, []isa.Instr{
			isa.MovI(1, 0),
			isa.MovI(2, uint32(len(text))),
			isa.MovA(1, 2),
			isa.Call(3, iosys.EntryWrite),
			isa.Halt(),
		})
		if f != nil {
			t.Fatal(f)
		}
		dom, f := im.Domains.Create(im.Heap, prog, []uint32{0})
		if f != nil {
			t.Fatal(f)
		}
		p, f := im.Spawn(dom, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, buf, dev}})
		if f != nil {
			t.Fatal(f)
		}
		if _, f := im.Run(50_000_000); f != nil {
			t.Fatal(f)
		}
		st, _ := im.Procs.StateOf(p)
		return st
	}

	// Through the real device: plain write.
	if st := client(realDev, "direct"); st != process.StateTerminated {
		t.Fatalf("direct client state %v", st)
	}
	// Through the interposer: identical client code, audited call.
	if st := client(auditDev, "audited write!"); st != process.StateTerminated {
		t.Fatalf("interposed client state %v", st)
	}
	if console.Output() != "direct"+"audited write!" {
		t.Fatalf("console got %q", console.Output())
	}
	if writes != 1 || totalBytes != 14 {
		t.Fatalf("audit saw %d writes, %d bytes", writes, totalBytes)
	}
	// The interposer's policy bites: the quota blocks a further write,
	// faulting the client — a trapped system call, per the paper.
	if st := client(auditDev, "this exceeds the remaining quota"); st != process.StateFaulted &&
		st != process.StateTerminated {
		t.Fatalf("quota client state %v", st)
	}
	if console.Output() != "direct"+"audited write!" {
		t.Fatalf("quota write leaked through: %q", console.Output())
	}
}
