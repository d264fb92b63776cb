package port

// The port fault matrix: testdata/port_faults.txt pins, for every
// combination of capability rights, port state, queue fill, blocking mode
// and message kind below, what Send and Receive answer — the fault code,
// the blocked flag, whether a process was woken — and a hash of the trace
// events the operation emitted and of the bytes it left in the port and in
// every carrier. The order in which the checks fire (dangling, type, type
// right, message, level, then read right, presence and the write right of
// the first store) and what a half-done operation leaves behind were not
// reasoned out: the file was generated at the parent of the commit that
// rewrote send and receive over obj.View, and is never regenerated by a
// test.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/obj"
	"repro/internal/trace"
)

const portFaultsPath = "testdata/port_faults.txt"

var (
	matrixStates = []string{"resident", "swapped", "destroyed", "wrongtype"}
	matrixFills  = []string{"room", "full", "empty", "full+sender", "empty+receiver"}
	matrixModes  = []string{"blocking", "conditional"}
	matrixMsgs   = []string{"ok", "nil", "local", "dangling"}
)

// matrixRights renders a subset of {Send, Receive, Read, Write}.
func matrixRights(mask int) (obj.Rights, string) {
	var r obj.Rights
	name := []byte("----")
	for i, bit := range []struct {
		r obj.Rights
		c byte
	}{{RightSend, 'S'}, {RightReceive, 'R'}, {obj.RightRead, 'r'}, {obj.RightWrite, 'w'}} {
		if mask&(1<<i) != 0 {
			r |= bit.r
			name[i] = bit.c
		}
	}
	return r, string(name)
}

// matrixRow builds one fixture, performs one operation and renders what it
// answered and left behind.
func matrixRow(t *testing.T, send bool, rights obj.Rights, state, fill, mode, msgKind string) string {
	t.Helper()
	fx := setup(t)
	p := fx.newPort(t, 2, Priority)
	if state == "wrongtype" {
		var f *obj.Fault
		p, f = fx.sros.Create(fx.heap, obj.CreateSpec{Type: obj.TypeGeneric,
			DataLen: offSlots + 2*slotRecSize, AccessSlots: slotMsg0 + 2})
		if f != nil {
			t.Fatal(f)
		}
	} else {
		must := func(f *obj.Fault) {
			t.Helper()
			if f != nil {
				t.Fatal(f)
			}
		}
		queued := map[string]int{"room": 1, "full": 2, "full+sender": 2}[fill]
		for i := 0; i < queued; i++ {
			_, _, f := fx.m.Send(p, fx.newMsg(t), uint32(i), obj.NilAD)
			must(f)
		}
		switch fill {
		case "full+sender":
			_, _, f := fx.m.Send(p, fx.newMsg(t), 9, fx.newProc(t))
			must(f)
		case "empty+receiver":
			_, _, _, f := fx.m.Receive(p, fx.newProc(t))
			must(f)
		}
	}
	msg := obj.NilAD
	switch msgKind {
	case "ok":
		msg = fx.newMsg(t)
	case "local":
		local, f := fx.sros.NewLocalHeap(fx.heap, 4, 0)
		if f != nil {
			t.Fatal(f)
		}
		if msg, f = fx.sros.Create(local, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 4}); f != nil {
			t.Fatal(f)
		}
	case "dangling":
		msg = fx.newMsg(t)
		if f := fx.tab.DestroyIndex(msg.Index); f != nil {
			t.Fatal(f)
		}
	}
	proc := obj.NilAD
	if mode == "blocking" {
		proc = fx.newProc(t)
	}
	switch state {
	case "swapped":
		if f := fx.tab.SwapOut(p.Index, 7, math.MaxUint32, math.MaxUint32); f != nil {
			t.Fatal(f)
		}
	case "destroyed":
		if f := fx.tab.DestroyIndex(p.Index); f != nil {
			t.Fatal(f)
		}
	}

	log := trace.New(256)
	fx.tab.SetTracer(log)
	var got obj.AD
	var blocked bool
	var wake *Wake
	var f *obj.Fault
	if send {
		blocked, wake, f = fx.m.Send(p.WithRights(rights), msg, 5, proc)
	} else {
		got, blocked, wake, f = fx.m.Receive(p.WithRights(rights), proc)
	}
	code := obj.FaultNone
	if f != nil {
		code = f.Code
	}
	var tr, left bytes.Buffer
	if err := log.Dump(&tr); err != nil {
		t.Fatal(err)
	}
	objectBytes(&left, fx.tab, p.Index)
	left.Write(carrierBytes(fx.tab))
	return fmt.Sprintf("fault=%s blocked=%v woke=%v msg=%v trace=%.16s bytes=%.16s",
		strings.ReplaceAll(code.String(), " ", "_"), blocked, wake != nil, got.Valid(),
		sum(tr.Bytes()), sum(left.Bytes()))
}

// matrixRows calls each with every (key, row) of the matrix. Fill only
// varies on a resident port (nothing reads the queue otherwise), and the
// message kinds other than "ok" are sent conditionally into a port with
// room.
func matrixRows(t *testing.T, each func(key, row string)) {
	for _, op := range []string{"send", "recv"} {
		for mask := 0; mask < 16; mask++ {
			rights, rname := matrixRights(mask)
			for _, state := range matrixStates {
				fills := matrixFills
				if state != "resident" {
					fills = fills[:1]
				}
				for _, fill := range fills {
					for _, mode := range matrixModes {
						key := strings.Join([]string{op, rname, state, fill, mode, "ok"}, "/")
						each(key, matrixRow(t, op == "send", rights, state, fill, mode, "ok"))
					}
				}
				if op == "send" {
					for _, kind := range matrixMsgs[1:] {
						key := strings.Join([]string{op, rname, state, "room", "conditional", kind}, "/")
						each(key, matrixRow(t, true, rights, state, "room", "conditional", kind))
					}
				}
			}
		}
	}
}

func TestPortFaultMatrix(t *testing.T) {
	want := loadPinned(t, portFaultsPath)
	rows := 0
	matrixRows(t, func(key, got string) {
		rows++
		if got != want[key] {
			t.Errorf("%s moved off the fault matrix:\n got %s\nwant %s", key, got, want[key])
		}
	})
	if len(want) != rows {
		t.Errorf("%s pins %d rows, want %d", portFaultsPath, len(want), rows)
	}
}
