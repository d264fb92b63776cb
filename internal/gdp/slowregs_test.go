package gdp_test

// The slow-op register pin: testdata/slow_register_faults.txt records, for
// every opcode outside the run loop's fast set that names a register, each
// register field it reads set to its working value and to 4, 7, 8 and 255,
// on both interpreter corners, what one process running that instruction
// ends with — the fault code and the table index of the object it names,
// whether the instruction blocked, the final run state — and a hash of the
// bytes of every live object (contexts, operands, the port, carriers, the
// process) and of the kernel trace dump. Fault text is not recorded. A
// blocked receive is woken with a second message and run to its end, so a
// destination register that does not exist faults in the resumption. The
// file was generated at the parent of the commit that moved the
// interpreter's register traffic onto one context view per instruction,
// and is never regenerated by a test.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gdp"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/trace"
)

const slowRegsPath = "testdata/slow_register_faults.txt"

// slowCase is one opcode at its working operands. aargs names what each of
// a0..a3 holds: g a generic object whose slot 0 holds the port, p the port,
// h the system heap, t a TDO, i an instance of it, w that instance without
// the write right, d a domain, - nothing.
type slowCase struct {
	in     isa.Instr
	aargs  string
	queued bool // a message waits at the port
}

var slowCases = []slowCase{
	{isa.Instr{Op: isa.OpSend, A: 0, B: 1, C: 2}, "gp--", false},
	{isa.Instr{Op: isa.OpCSend, A: 0, B: 1, C: 2}, "gp--", false},
	{isa.Instr{Op: isa.OpRecv, A: 2, B: 1}, "gp--", false},
	{isa.Instr{Op: isa.OpCRecv, A: 2, B: 1, C: 3}, "gp--", true},
	{isa.Instr{Op: isa.OpLoadA, A: 2, B: 0, C: 0}, "gp--", false},
	{isa.Instr{Op: isa.OpStoreA, A: 1, B: 0, C: 1}, "gp--", false},
	{isa.Instr{Op: isa.OpMovA, A: 2, B: 0}, "gp--", false},
	{isa.Instr{Op: isa.OpCreate, A: 2, B: 3, C: 0}, "gp-h", false},
	{isa.Instr{Op: isa.OpTypeOf, A: 3, B: 1}, "gp--", false},
	{isa.Instr{Op: isa.OpAmplify, A: 0, B: 1, C: uint32(obj.RightWrite)}, "wt--", false},
	{isa.Instr{Op: isa.OpIsType, A: 3, B: 0, C: 1}, "it--", false},
	{isa.Instr{Op: isa.OpCall, B: 3, C: 0}, "gp-d", false},
	{isa.Instr{Op: isa.OpCallLocal, C: 1}, "----", false},
	{isa.Instr{Op: isa.OpRet}, "----", false},
}

// slowRow boots one machine, runs one process whose program sets r4..r7,
// executes in and halts, and renders how it ended. r0..r3 hold 16, 2, 5
// and 0, so create's size and slot count are 16 and 2 at C = 0.
func slowRow(t *testing.T, nocache bool, c slowCase, in isa.Instr) string {
	t.Helper()
	s, err := gdp.New(gdp.Config{MemoryBytes: 64 << 10, NoExecCache: nocache})
	if err != nil {
		t.Fatal(err)
	}
	log := trace.New(trace.DefaultCapacity)
	s.SetTracer(log)
	must := func(ad obj.AD, f *obj.Fault) obj.AD {
		t.Helper()
		if f != nil {
			t.Fatal(f)
		}
		return ad
	}
	generic := func(slots uint32) obj.AD {
		return must(s.SROs.Create(s.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16, AccessSlots: slots}))
	}
	domain := func(prog []isa.Instr, entries ...uint32) obj.AD {
		code := must(s.Domains.CreateCode(s.Heap, prog))
		return must(s.Domains.Create(s.Heap, code, entries))
	}
	g, m := generic(4), generic(0)
	p := must(s.Ports.Create(s.Heap, 2, port.FIFO))
	if f := s.Table.StoreAD(g, 0, p); f != nil {
		t.Fatal(f)
	}
	tdo := must(s.TDOs.Define("pin", obj.LevelGlobal, obj.NilIndex))
	inst := must(s.TDOs.CreateInstance(tdo, obj.CreateSpec{DataLen: 8}))
	callee := domain([]isa.Instr{isa.Add(0, 0, 1), isa.MovA(0, 1), isa.Ret()}, 0)
	if c.queued {
		if _, _, f := s.Ports.Send(p, generic(0), 1, obj.NilAD); f != nil {
			t.Fatal(f)
		}
	}
	var aargs [4]obj.AD
	for i, r := range c.aargs {
		aargs[i] = map[rune]obj.AD{'g': g, 'p': p, 'h': s.Heap, 't': tdo, 'i': inst,
			'w': inst.Restrict(obj.RightWrite), 'd': callee, '-': obj.NilAD}[r]
	}
	self := domain([]isa.Instr{
		isa.MovI(4, 8), isa.MovI(5, 1), isa.MovI(6, 0), isa.MovI(7, 3),
		in,
		isa.Halt(),
		isa.MovI(0, 9), isa.Ret(), // entry 1
	}, 0, 6)
	proc := must(s.Spawn(self, gdp.SpawnSpec{Args: [4]uint32{16, 2, 5, 0}, AArgs: aargs}))

	runOut := func() process.State {
		t.Helper()
		if _, f := s.Run(1_000_000); f != nil {
			t.Fatal(f)
		}
		st, f := s.Procs.StateOf(proc)
		if f != nil {
			t.Fatal(f)
		}
		return st
	}
	st := runOut()
	blocked := st == process.StateBlocked
	if blocked {
		_, wake, f := s.Ports.Send(p, m, 2, obj.NilAD)
		if f != nil || wake == nil {
			t.Fatalf("waking the blocked receiver: wake=%v %v", wake, f)
		}
		s.Wake(*wake) // a failure is damage, which runOut's Run returns
		st = runOut()
	}
	code, f := s.Procs.FaultCode(proc)
	if f != nil {
		t.Fatal(f)
	}
	var pv process.Proc
	s.Procs.Open(proc, obj.RightRead, &pv)
	at := pv.FaultObject()
	if f := pv.Fault(); f != nil {
		t.Fatal(f)
	}

	var objects, tr bytes.Buffer
	mem := s.Table.Memory()
	for i := 1; i < s.Table.Len(); i++ {
		d := s.Table.DescriptorAt(obj.Index(i))
		if d == nil {
			continue
		}
		fmt.Fprintf(&objects, "%d type=%d gen=%d level=%d", i, d.Type, d.Gen, d.Level)
		if d.SwappedOut() {
			fmt.Fprintf(&objects, " swapped\n")
			continue
		}
		fmt.Fprintf(&objects, " data=%x access=%x\n", mem.Window(d.Data()), mem.Window(d.Access()))
	}
	if log.Seq() > trace.DefaultCapacity {
		t.Fatalf("trace ring wrapped: %d events", log.Seq())
	}
	if err := log.Dump(&tr); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string {
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:8])
	}
	return fmt.Sprintf("fault=%s ad=%d blocked=%v state=%v objects=%s trace=%s",
		codeName(code), at, blocked, st, sum(objects.Bytes()), sum(tr.Bytes()))
}

func codeName(c obj.FaultCode) string { return strings.ReplaceAll(c.String(), " ", "_") }

// slowRows calls each with every (key, row) of the pin, in file order.
func slowRows(t *testing.T, each func(key, row string)) {
	for _, corner := range []string{"nocache", "cache"} {
		for _, c := range slowCases {
			name := c.in.Op.String()
			fields := 0
			for _, o := range c.in.Op.Spec().Args {
				if o.Kind != isa.DReg && o.Kind != isa.AReg {
					continue
				}
				fields++
				for _, v := range []uint32{c.in.Field(o), 4, 7, 8, 255} {
					in := c.in
					in.SetField(o, v)
					key := fmt.Sprintf("%s/%s/%c=%d", corner, name, o.Field, v)
					each(key, slowRow(t, corner == "nocache", c, in))
				}
			}
			if fields == 0 {
				each(fmt.Sprintf("%s/%s/-", corner, name), slowRow(t, corner == "nocache", c, c.in))
			}
		}
	}
}

func TestSlowRegisterFaults(t *testing.T) {
	f, err := os.Open(slowRegsPath)
	if err != nil {
		t.Fatalf("pin unreadable (it is checked in at internal/gdp/%s): %v", slowRegsPath, err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, ok := strings.Cut(line, " ")
		if _, dup := want[key]; !ok || dup {
			t.Fatalf("%s:%d: malformed or duplicate line %q", slowRegsPath, lineNo, line)
		}
		want[key] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rows, faulted := 0, 0
	slowRows(t, func(key, got string) {
		rows++
		if strings.HasPrefix(got, "fault="+codeName(obj.FaultBounds)+" ") {
			faulted++
		}
		if got != want[key] {
			t.Errorf("%s moved off the pin:\n got %s\nwant %s", key, got, want[key])
		}
	})
	if len(want) != rows {
		t.Errorf("%s pins %d rows, want %d", slowRegsPath, len(want), rows)
	}
	if faulted == 0 || faulted == rows {
		t.Errorf("%d of %d rows fault on a register bound; the pin is one-sided", faulted, rows)
	}
}
