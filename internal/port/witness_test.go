package port

// The port witness: testdata/port_witness.txt pins, per (seed, discipline,
// capacity), what 400 seeded port operations leave behind — SHA-256 of the
// kernel trace dump, of the port's data and access bytes, of every
// carrier's bytes and of the results the operations returned. The serial
// witness of internal/gdp covers 29 programs whose ports are mostly
// near-empty; this one covers full queues, wait queues parked on both
// sides and cancellation at depth. The file was generated once, at the
// parent of the commit that rewrote send and receive over obj.View, and is
// never regenerated by a test: a change that moves a line has changed the
// bytes or the events a port operation produces.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/sro"
	"repro/internal/trace"
)

const (
	portWitnessPath  = "testdata/port_witness.txt"
	portWitnessSeeds = 40
	portWitnessOps   = 400
)

var portWitnessCapacities = []uint16{1, 4, 48}

// witnessCoverage counts the states the witness runs reached, so the test
// can show the file pins what its header says it pins.
type witnessCoverage struct {
	full, parkedSend, parkedRecv, deepCancel int
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// objectBytes appends the object's index and its data and access parts.
func objectBytes(buf *bytes.Buffer, tab *obj.Table, idx obj.Index) {
	d := tab.DescriptorAt(idx)
	if d == nil {
		fmt.Fprintf(buf, "%d gone\n", idx)
		return
	}
	if d.SwappedOut() {
		fmt.Fprintf(buf, "%d swapped\n", idx)
		return
	}
	m := tab.Memory()
	fmt.Fprintf(buf, "%d data=%x access=%x\n", idx, m.Window(d.Data()), m.Window(d.Access()))
}

// carrierBytes renders every live carrier of the table in index order.
func carrierBytes(tab *obj.Table) []byte {
	var buf bytes.Buffer
	for i := 1; i < tab.Len(); i++ {
		if d := tab.DescriptorAt(obj.Index(i)); d != nil && d.Type == obj.TypeCarrier {
			objectBytes(&buf, tab, obj.Index(i))
		}
	}
	return buf.Bytes()
}

// portWitnessLine drives one seeded run and reduces it to its witness line.
// The op mix leans towards sends or towards receives in alternating
// stretches of 100 operations (the seed picks which comes first), so every
// capacity fills, overflows into the sender queue, drains and parks
// receivers.
func portWitnessLine(t *testing.T, seed int64, disc Discipline, capacity uint16, cov *witnessCoverage) string {
	t.Helper()
	tab := obj.NewTable(1 << 17)
	log := trace.New(trace.DefaultCapacity)
	tab.SetTracer(log)
	s := sro.NewManager(tab)
	heap, f := s.NewGlobalHeap(0)
	if f != nil {
		t.Fatal(f)
	}
	m := NewManager(tab, s)
	p, f := m.Create(heap, capacity, disc)
	if f != nil {
		t.Fatal(f)
	}
	alloc := func(typ obj.Type) obj.AD {
		ad, f := s.Create(heap, obj.CreateSpec{Type: typ, DataLen: 16, AccessSlots: 2})
		if f != nil {
			t.Fatal(f)
		}
		return ad
	}
	wakeStr := func(w *Wake) string {
		if w == nil {
			return "-"
		}
		return fmt.Sprintf("%d/%d", w.Process.Index, w.Msg.Index)
	}
	drop := func(pool *[]obj.AD, w *Wake) {
		if w == nil {
			return
		}
		for j, q := range *pool {
			if q.Index == w.Process.Index {
				*pool = append((*pool)[:j], (*pool)[j+1:]...)
				return
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	sendFirst := rng.Intn(2) == 0
	var results bytes.Buffer
	var parkedSend, parkedRecv []obj.AD
	for i := 0; i < portWitnessOps; i++ {
		sendHeavy := (i/100%2 == 0) == sendFirst
		// Of 16: 10 for the favoured side's blocking form, 2 for its
		// conditional form, 1 each for the other side's, 2 cancels.
		op, r := 4, rng.Intn(16)
		switch {
		case r < 10:
			op = 0
		case r < 12:
			op = 1
		case r < 13:
			op = 2
		case r < 14:
			op = 3
		}
		if !sendHeavy && op < 4 {
			op ^= 2
		}
		key := uint32(rng.Intn(8))
		switch op {
		case 0, 1: // blocking and conditional send
			proc := obj.NilAD
			if op == 0 {
				proc = alloc(obj.TypeProcess)
			}
			blocked, wake, f := m.Send(p, alloc(obj.TypeGeneric), key, proc)
			fmt.Fprintf(&results, "%d send%d key=%d blocked=%v wake=%s f=%v\n", i, op, key, blocked, wakeStr(wake), f)
			if blocked && op == 0 {
				parkedSend = append(parkedSend, proc)
			}
			drop(&parkedRecv, wake)
		case 2, 3: // blocking and conditional receive
			proc := obj.NilAD
			if op == 2 {
				proc = alloc(obj.TypeProcess)
			}
			msg, blocked, wake, f := m.Receive(p, proc)
			fmt.Fprintf(&results, "%d recv%d msg=%d blocked=%v wake=%s f=%v\n", i, op-2, msg.Index, blocked, wakeStr(wake), f)
			if blocked && op == 2 {
				parkedRecv = append(parkedRecv, proc)
			}
			drop(&parkedSend, wake)
		case 4: // cancel a parked waiter, either side, any depth
			pool := &parkedSend
			if len(parkedSend) == 0 || len(parkedRecv) > 0 && rng.Intn(2) == 0 {
				pool = &parkedRecv
			}
			if len(*pool) == 0 {
				fmt.Fprintf(&results, "%d cancel none\n", i)
				continue
			}
			j := rng.Intn(len(*pool))
			found, msg, f := m.CancelWaiter(p, (*pool)[j])
			fmt.Fprintf(&results, "%d cancel depth=%d found=%v msg=%d f=%v\n", i, j, found, msg.Index, f)
			if j >= 3 {
				cov.deepCancel++
			}
			*pool = append((*pool)[:j], (*pool)[j+1:]...)
		}
		if n, _ := m.Count(p); n == int(capacity) {
			cov.full++
		}
		if len(parkedSend) > 1 {
			cov.parkedSend++
		}
		if len(parkedRecv) > 1 {
			cov.parkedRecv++
		}
	}

	if log.Seq() > trace.DefaultCapacity {
		t.Fatalf("trace ring wrapped: %d events", log.Seq())
	}
	var tr, pb bytes.Buffer
	if err := log.Dump(&tr); err != nil {
		t.Fatal(err)
	}
	objectBytes(&pb, tab, p.Index)
	return fmt.Sprintf("trace=%s port=%s carriers=%s results=%s",
		sum(tr.Bytes()), sum(pb.Bytes()), sum(carrierBytes(tab)), sum(results.Bytes()))
}

// loadPinned reads a pinned `key rest-of-line` file; any defect is a loud
// failure.
func loadPinned(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("pinned file unreadable (it is checked in at internal/port/%s): %v", path, err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, rest, ok := strings.Cut(line, " ")
		if _, dup := out[key]; !ok || dup {
			t.Fatalf("%s:%d: malformed or duplicate line %q", path, lineNo, line)
		}
		out[key] = rest
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: read error: %v", path, err)
	}
	return out
}

// portWitnessRuns calls each with every (key, line) of the witness, in file
// order.
func portWitnessRuns(t *testing.T, cov map[uint16]*witnessCoverage, each func(key, line string)) {
	for _, capacity := range portWitnessCapacities {
		cov[capacity] = &witnessCoverage{}
	}
	for seed := int64(1); seed <= portWitnessSeeds; seed++ {
		for _, disc := range []Discipline{FIFO, Priority, Deadline} {
			for _, capacity := range portWitnessCapacities {
				key := fmt.Sprintf("%d/%s/%d", seed, disc, capacity)
				each(key, portWitnessLine(t, seed, disc, capacity, cov[capacity]))
			}
		}
	}
}

func TestPortWitness(t *testing.T) {
	want := loadPinned(t, portWitnessPath)
	cov := make(map[uint16]*witnessCoverage)
	runs := 0
	portWitnessRuns(t, cov, func(key, got string) {
		runs++
		if got != want[key] {
			t.Errorf("%s moved off the port witness:\n got %s\nwant %s", key, got, want[key])
		}
	})
	if len(want) != runs {
		t.Errorf("%s pins %d lines, want %d", portWitnessPath, len(want), runs)
	}
	for capacity, c := range cov {
		if c.full == 0 || c.parkedSend == 0 || c.parkedRecv == 0 || c.deepCancel == 0 {
			t.Errorf("capacity %d: witness runs do not reach the states they claim to pin: %+v", capacity, *c)
		}
	}
}
