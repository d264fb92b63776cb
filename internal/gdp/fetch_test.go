package gdp

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
)

// TestFetchDecodesOnce: the first fetch of a domain decodes its code object,
// and every later one, with or without the predecoded table, returns that
// same decode.
func TestFetchDecodesOnce(t *testing.T) {
	s := newSystem(t, 1)
	prog := []isa.Instr{isa.MovI(0, 5), isa.Halt()}
	dom := mustDomain(t, s, prog)
	code, first, f := s.fetch(dom, false)
	if f != nil {
		t.Fatal(f)
	}
	if want, _ := s.Domains.Code(dom); code != want {
		t.Fatalf("fetched code object %v, the domain holds %v", code, want)
	}
	if len(first.prog) != 2 || first.prog[0] != prog[0] || first.prog[1] != prog[1] {
		t.Fatalf("fetched program %v", first.prog)
	}
	if first.ops != nil {
		t.Fatal("a fetch without the table predecoded")
	}
	for _, withOps := range []bool{false, true, true} {
		_, again, f := s.fetch(dom, withOps)
		if f != nil {
			t.Fatal(f)
		}
		if &again.prog[0] != &first.prog[0] {
			t.Fatalf("withOps=%v: the program was decoded again", withOps)
		}
		if withOps && len(again.ops) != len(prog) {
			t.Fatalf("predecoded table of %d ops for %d instructions", len(again.ops), len(prog))
		}
	}
}

// TestFetchRefusesDanglingCode: a decode is kept for the code object it was
// made from, not for its slot. A domain whose code object was reclaimed
// holds a dangling AD, which fetch refuses with FaultInvalidAD; a new code
// object in that slot is decoded afresh.
func TestFetchRefusesDanglingCode(t *testing.T) {
	s := newSystem(t, 1)
	dom := mustDomain(t, s, []isa.Instr{isa.Halt()})
	code, _, f := s.fetch(dom, true)
	if f != nil {
		t.Fatal(f)
	}
	if f := s.SROs.Reclaim(code.Index); f != nil {
		t.Fatal(f)
	}
	dom2 := mustDomain(t, s, []isa.Instr{isa.Nop(), isa.Halt()})
	code2, dec, f := s.fetch(dom2, false)
	if f != nil {
		t.Fatal(f)
	}
	if code2.Index != code.Index {
		t.Fatalf("the table did not reuse slot %d (got %d); the test is vacuous", code.Index, code2.Index)
	}
	if len(dec.prog) != 2 || dec.ops != nil {
		t.Fatalf("the reused slot was served its predecessor's decode: %v", dec)
	}
	if _, _, f := s.fetch(dom, false); !obj.IsFault(f, obj.FaultInvalidAD) {
		t.Fatalf("dangling code AD: %v", f)
	}
}

// TestFetchDecodesReusedSlotAfresh: decodes are indexed by table slot
// (obj.Side, bounded by the table by construction), so each of a thousand
// code objects created and destroyed through a reused slot is decoded
// afresh, never served its predecessor's program.
func TestFetchDecodesReusedSlotAfresh(t *testing.T) {
	s := newSystem(t, 1)
	slots := make(map[obj.Index]bool)
	for i := uint32(0); i < 1000; i++ {
		dom := mustDomain(t, s, []isa.Instr{isa.MovI(0, i), isa.Halt()})
		code, dec, f := s.fetch(dom, i%2 == 0)
		if f != nil {
			t.Fatal(f)
		}
		slots[code.Index] = true
		if dec.prog[0].C != i {
			t.Fatalf("code object %d decoded as %v", i, dec.prog)
		}
		for _, ad := range []obj.AD{dom, code} {
			if f := s.SROs.Reclaim(ad.Index); f != nil {
				t.Fatal(f)
			}
		}
	}
	if len(slots) >= 1000 {
		t.Fatalf("the table never reused a slot (%d distinct); the test is vacuous", len(slots))
	}
}

// TestUndecodableCodeFaultsTheProcess: a code object whose bytes are no
// program is refused at its first fetch, typed: the process that dispatches
// into it ends with FaultOddity, in both corners, and fetch says why.
func TestUndecodableCodeFaultsTheProcess(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		s, err := New(Config{NoExecCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		dom := mustDomain(t, s, []isa.Instr{isa.Nop(), isa.Halt()})
		code, f := s.Domains.Code(dom)
		if f != nil {
			t.Fatal(f)
		}
		if f := s.Table.WriteBytes(code, 0, []byte{0xff}); f != nil {
			t.Fatal(f)
		}
		fport, f := s.Ports.Create(s.Heap, 4, port.FIFO)
		if f != nil {
			t.Fatal(f)
		}
		p, f := s.Spawn(dom, SpawnSpec{FaultPort: fport})
		if f != nil {
			t.Fatal(f)
		}
		run(t, s)
		mustState(t, s, p, process.StateFaulted)
		if c, _ := s.Procs.FaultCode(p); c != obj.FaultOddity {
			t.Errorf("nocache=%v: fault code %v, want %v", noCache, c, obj.FaultOddity)
		}
		const why = "isa: at instruction 0: isa: invalid opcode 255"
		if _, _, f := s.fetch(dom, !noCache); !obj.IsFault(f, obj.FaultOddity) || f.Detail != why {
			t.Errorf("nocache=%v: fetch refused with %v, want %q", noCache, f, why)
		}
	}
}

// TestDecodedCodeIgnoresByteWrites: a decode is keyed by the code object's
// index and generation, and a data write changes neither, so a write into a
// code object already decoded is not seen by the next dispatch: a Br(0)
// written over the decoded Halt leaves the next process running the Halt,
// in both corners.
func TestDecodedCodeIgnoresByteWrites(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		s, err := New(Config{NoExecCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		dom := mustDomain(t, s, []isa.Instr{isa.Halt()})
		first, f := s.Spawn(dom, SpawnSpec{})
		if f != nil {
			t.Fatal(f)
		}
		run(t, s)
		mustState(t, s, first, process.StateTerminated)

		code, f := s.Domains.Code(dom)
		if f != nil {
			t.Fatal(f)
		}
		if f := s.Table.WriteBytes(code, 0, isa.EncodeProgram([]isa.Instr{isa.Br(0)})); f != nil {
			t.Fatal(f)
		}
		img, f := s.Table.ReadBytes(code, 0, isa.InstrSize)
		if f != nil {
			t.Fatal(f)
		}
		if in, err := isa.Decode(img); err != nil || in != isa.Br(0) {
			t.Fatalf("the code object holds %v (%v), want the written Br(0)", in, err)
		}
		second, f := s.Spawn(dom, SpawnSpec{})
		if f != nil {
			t.Fatal(f)
		}
		if _, f := s.Run(100_000); f != nil {
			t.Fatal(f)
		}
		if st, _ := s.Procs.StateOf(second); st != process.StateTerminated {
			t.Errorf("nocache=%v: the next dispatch ran the written bytes (state %v), not the decoded Halt", noCache, st)
		}
	}
}
