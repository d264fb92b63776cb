// Quickstart: boot a two-processor iMAX system, wire two processes
// together through a typed port, and watch the dispatching, blocking and
// wakeup machinery do its job.
//
// The port is an instance of the generic Typed_Ports package of Figure 2
// (internal/ipc): to the Go side it carries greetings and nothing else, to
// the hardware it is the same port an untyped program would use. The
// producer sends ten numbered greetings; the consumer receives eleven,
// doubles each payload, and parks at the empty port once the producer is
// done. The eleventh is said from the Go side through the typed interface:
// the send hands it to the parked consumer, and the port's waker returns
// that process to the dispatching mix. Neither process knows the other
// exists — the port is their only coupling, exactly the §4 model.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gdp"
	"repro/internal/iosys"
	"repro/internal/ipc"
	"repro/internal/isa"
	"repro/internal/obj"
	"repro/internal/port"
	"repro/internal/process"
	"repro/internal/workload"
)

// greeting is the message type of the port: it exists only at compile time.
type greeting struct{}

const fromVM = 10 // greetings the producer sends; the Go side adds one

func main() {
	im, err := core.Boot(core.Config{Processors: 2, GC: true})
	if err != nil {
		log.Fatal(err)
	}

	// A bounded FIFO port: capacity 3 forces the producer to block and
	// resume under backpressure. The waker is what lets a Go-side send
	// unpark a simulated receiver.
	hello := must(ipc.CreateTyped[greeting](im.Ports, im.Heap, 3, port.FIFO)).WithWaker(im.System)

	console := iosys.NewConsole()
	consoleDom := must(iosys.InstallConsole(im.Domains, im.Heap, console))

	// Producer: create a message object per iteration, tag it with the
	// sequence number, send it.
	producer := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(4, fromVM+1),
		isa.MovI(5, 1), // sequence number
		// loop:
		isa.MovI(2, 8), // data bytes for CREATE
		isa.MovI(3, 0), // access slots
		isa.Create(1, 0, 2),
		isa.Store(5, 1, 0), // message payload = seq
		isa.MovI(6, 0),
		isa.Send(1, 2, 6), // port in a2
		isa.AddI(5, 5, 1),
		isa.BrLT(5, 4, 2), // while seq < 11
		isa.Halt(),
	}))
	// Consumer: receive, double the payload, store into the shared
	// result object.
	consumer := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(4, fromVM+1),
		// loop:
		isa.Recv(1, 2),    // a1 ← message from port a2
		isa.Load(0, 1, 0), // r0 ← payload
		isa.Add(0, 0, 0),  // double it
		isa.Store(0, 3, 0),
		isa.AddI(4, 4, ^uint32(0)),
		isa.BrNZ(4, 1),
		isa.Halt(),
	}))
	result := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))

	// The port capability is handed to the processes that use it.
	prod := must(im.Spawn(producer, gdp.SpawnSpec{
		TimeSlice: 2_000,
		AArgs:     [4]obj.AD{im.Heap, obj.NilAD, hello.Port()},
	}))
	cons := must(im.Spawn(consumer, gdp.SpawnSpec{
		TimeSlice: 2_000,
		AArgs:     [4]obj.AD{obj.NilAD, obj.NilAD, hello.Port(), result},
	}))

	// Everything we hold across a run must be reachable from the system
	// directory: capabilities living only in Go variables are invisible
	// to the collector, exactly as ADs held off-machine would be. The
	// processes too: a terminated process is garbage unless held.
	for slot, ad := range []obj.AD{result, hello.Port(), consoleDom, producer, consumer, prod, cons} {
		check(im.Publish(uint32(slot), ad))
	}

	state := func(p obj.AD) process.State {
		st, _ := im.Procs.StateOf(p)
		return st
	}
	elapsed := must(im.RunUntil(func() bool {
		return state(prod) == process.StateTerminated && state(cons) == process.StateBlocked
	}, 100_000_000))

	// The eleventh greeting, from outside the machine.
	last := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
	check(im.Table.WriteDWord(last, 0, fromVM+1))
	if err := hello.Send(ipc.Wrap[greeting](last)); err != nil {
		log.Fatalf("typed send: %v", err)
	}
	elapsed += must(im.RunUntil(func() bool { return state(cons) == process.StateTerminated }, 100_000_000))

	v := must(im.Table.ReadDWord(result, 0))
	if v != 2*(fromVM+1) {
		log.Fatalf("final payload %d, want %d", v, 2*(fromVM+1))
	}
	writeToConsole(im, consoleDom, fmt.Sprintf("last greeting %d doubled = %d\n", fromVM+1, v))

	st := im.Stats()
	fmt.Printf("quickstart: %d greetings relayed through a capacity-3 typed port, the last sent from Go\n", fromVM+1)
	fmt.Printf("  final payload           : %d (want %d)\n", v, 2*(fromVM+1))
	fmt.Printf("  virtual time            : %v\n", elapsed)
	fmt.Printf("  dispatches              : %d\n", st.Dispatches)
	fmt.Printf("  preemptions             : %d\n", st.Preemptions)
	fmt.Printf("  instructions executed   : %d\n", st.Instructions)
	fmt.Printf("  objects live            : %d\n", im.Table.Live())
	if im.Collector != nil {
		fmt.Printf("  gc cycles/reclaimed     : %d/%d\n",
			im.Collector.Stats().Cycles, im.Collector.Stats().Reclaimed)
	}
	fmt.Printf("  console captured        : %q\n", console.Output())
}

// must unwraps a result whose fault is fatal to the example.
func must[T any](v T, f *obj.Fault) T {
	check(f)
	return v
}

func check(f *obj.Fault) {
	if f != nil {
		log.Fatal(f)
	}
}

// writeToConsole pushes text through the device-independent interface
// from the Go side by spawning a small writer process.
func writeToConsole(im *core.IMAX, dev obj.AD, text string) {
	buf := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: uint32(len(text))}))
	check(im.Table.WriteBytes(buf, 0, []byte(text)))
	writer := must(workload.Domain(im.System, []isa.Instr{
		isa.MovI(1, 0),
		isa.MovI(2, uint32(len(text))),
		isa.MovA(1, 2),
		isa.Call(3, iosys.EntryWrite),
		isa.Halt(),
	}))
	p := must(im.Spawn(writer, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, obj.NilAD, buf, dev}}))
	must(im.RunUntil(func() bool {
		st, _ := im.Procs.StateOf(p)
		return st == process.StateTerminated
	}, 10_000_000))
}
