// Tapefarm: the §8.2 lost-object story, end to end.
//
// A tape-drive type manager owns a fixed pool of drives, each represented
// by an object of the user-defined type tape_drive. Clients check drives
// out, and — through accident or intent — some clients lose their
// capability without returning the drive. In a conventional system those
// drives would be gone; here the manager armed a destruction filter on
// its TDO, so the garbage collector delivers every lost drive to the
// manager's recovery port instead of reclaiming it, and the pool refills.
//
// Two pieces of §4 do the manager's checking. The recovery port is a
// runtime-checked port (ipc.Checked): what comes out of it is a drive or
// the receive fails. And check-in is the type-manager entry operation, run
// as the instructions it compiles to: a client holds its drive without the
// delete right, so the capability it hands back is weaker than the one the
// pool gave out, and only the holder of the TDO can amplify it back.
// Without that step the pool's rights decay with every round trip; the
// example asserts at exit that they have not.
//
// Run with: go run ./examples/tapefarm
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

const (
	driveCount  = 8
	checkouts   = 50 // drives checked out over the run
	loseEvery   = 3  // every third client loses its drive
	dirTDO      = 0
	dirRecovery = 1
	dirPool     = 2
	dirCheckin  = 3
	dirTray     = 4
)

// manager is the tape-drive type manager: a pool of drive objects plus
// the recovery port its destruction filter feeds.
type manager struct {
	im       *core.IMAX
	tdo      obj.AD
	recovery ipc.Checked
	pool     obj.AD // directory object holding free-drive capabilities
	entry    obj.AD // the check-in domain
	tray     obj.AD // where the check-in domain leaves its verdict and the amplified capability
	free     int
	devices  map[obj.Index]*iosys.Tape // the physical media behind the objects
}

// checkinProgram is the manager's entry operation. a1 = the capability a
// client handed back, a2 = the TDO, a3 = the tray. To the hardware a drive
// is an ordinary generic object (typeof); to the holder of the TDO it is a
// tape_drive or it is not (istype), and if it is, amplify restores the
// rights the client's copy was issued without.
var checkinProgram = []isa.Instr{
	isa.TypeOf(1, 1),
	isa.IsType(0, 1, 2),
	isa.BrZ(0, 5),
	isa.Amplify(1, 2, uint32(obj.RightsAll)),
	isa.StoreA(1, 3, 0),
	isa.Store(0, 3, 0), // verdict
	isa.Store(1, 3, 4), // hardware type
	isa.Halt(),
}

func newManager(im *core.IMAX) *manager {
	tdo := must(im.TDOs.Define("tape_drive", obj.LevelGlobal, obj.NilIndex))
	// Nothing parks at the recovery port today; the waker is what keeps a
	// receive that unparks a sender from losing it.
	recovery := must(ipc.CreateChecked(im.Ports, im.TDOs, im.Heap, tdo, driveCount*2, port.FIFO)).WithWaker(im.System)
	pool := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, AccessSlots: driveCount}))
	check(im.TDOs.ArmDestructionFilter(tdo, recovery.Port()))
	m := &manager{im: im, tdo: tdo, recovery: recovery, pool: pool,
		entry:   must(workload.Domain(im.System, checkinProgram)),
		tray:    must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8, AccessSlots: 1})),
		devices: make(map[obj.Index]*iosys.Tape)}
	// The manager's own anchors live in the system directory.
	for slot, ad := range map[uint32]obj.AD{dirTDO: tdo, dirRecovery: recovery.Port(), dirPool: pool,
		dirCheckin: m.entry, dirTray: m.tray} {
		check(im.Publish(slot, ad))
	}
	for i := 0; i < driveCount; i++ {
		drive := must(im.TDOs.CreateInstance(tdo, obj.CreateSpec{DataLen: 16}))
		check(im.Table.WriteDWord(drive, 0, uint32(i)))
		check(im.Table.StoreAD(pool, uint32(i), drive))
		m.devices[drive.Index] = iosys.NewTape(1 << 16)
		m.free++
	}
	return m
}

// checkout hands a drive to a client: the capability leaves the pool, so
// the client's copy is the only reference.
func (m *manager) checkout() (obj.AD, bool) {
	for i := uint32(0); i < driveCount; i++ {
		ad, f := m.im.Table.LoadAD(m.pool, i)
		if f != nil {
			log.Fatal(f)
		}
		if ad.Valid() {
			if f := m.im.Table.StoreAD(m.pool, i, obj.NilAD); f != nil {
				log.Fatal(f)
			}
			m.free--
			// Clients get no delete right: only the manager
			// disposes of drives.
			return ad.Restrict(obj.RightDelete), true
		}
	}
	return obj.NilAD, false
}

// checkin returns a drive to the pool, through the check-in domain: the
// capability that goes back in is the amplified one.
func (m *manager) checkin(drive obj.AD) {
	im := m.im
	p := must(im.Spawn(m.entry, gdp.SpawnSpec{AArgs: [4]obj.AD{obj.NilAD, drive, m.tdo, m.tray}}))
	must(im.RunUntil(func() bool {
		st, _ := im.Procs.StateOf(p)
		return st == process.StateTerminated
	}, 1_000_000))
	if must(im.Table.ReadDWord(m.tray, 0)) != 1 {
		log.Fatalf("checkin of a non-drive: %v", drive)
	}
	if hw := obj.Type(must(im.Table.ReadDWord(m.tray, 4))); hw != obj.TypeGeneric {
		log.Fatalf("a drive is a %v to the hardware, want %v", hw, obj.TypeGeneric)
	}
	drive = must(im.Table.LoadAD(m.tray, 0))
	check(im.Table.StoreAD(m.tray, 0, obj.NilAD))
	for i := uint32(0); i < driveCount; i++ {
		if ad := must(im.Table.LoadAD(m.pool, i)); !ad.Valid() {
			check(im.Table.StoreAD(m.pool, i, drive))
			m.free++
			return
		}
	}
	log.Fatal("pool overflow")
}

// recoverLost drains the recovery port: every delivery is a drive some
// client lost, recognisable and restorable because its type identity
// survived (§7.2) — the checked port verifies it on the way out. Returns
// the number recovered.
func (m *manager) recoverLost() int {
	n := 0
	for {
		msg, err := m.recovery.Receive()
		if err == ipc.ErrWouldBlock {
			return n
		}
		if err != nil {
			log.Fatalf("recovery port: %v", err)
		}
		// The collector marked it finalized; a fresh instance takes
		// its place in the accounting (rewinding the physical medium)
		// while the recovered object itself returns to service.
		if tape := m.devices[msg.Index]; tape != nil {
			tape.Rewind()
		}
		m.checkin(msg)
		n++
	}
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

func main() {
	im, err := core.Boot(core.Config{Processors: 1})
	if err != nil {
		log.Fatal(err)
	}
	m := newManager(im)

	lost, returned, denied := 0, 0, 0
	for c := 0; c < checkouts; c++ {
		drive, ok := m.checkout()
		if !ok {
			// Pool empty: run a collection — lost drives come
			// back through the filter.
			if _, f := im.Collect(); f != nil {
				log.Fatal(f)
			}
			got := m.recoverLost()
			fmt.Printf("  pool empty at checkout %d: collection recovered %d drives\n", c, got)
			drive, ok = m.checkout()
			if !ok {
				denied++
				continue
			}
		}
		// The client uses the drive, then either returns it or loses
		// the capability (drops it on the floor).
		if c%loseEvery == 0 {
			lost++ // the only AD was in our hands; now it is gone
		} else {
			m.checkin(drive)
			returned++
		}
	}
	// Final sweep.
	if _, f := im.Collect(); f != nil {
		log.Fatal(f)
	}
	recovered := m.recoverLost()

	fmt.Printf("tapefarm: %d drives, %d checkouts, %d returned, %d lost\n",
		driveCount, checkouts, returned, lost)
	fmt.Printf("  final collection recovered : %d drives\n", recovered)
	fmt.Printf("  drives in pool             : %d of %d\n", m.free, driveCount)
	if m.free != driveCount {
		log.Fatalf("LOST OBJECTS: %d drives unaccounted for", driveCount-m.free)
	}
	fmt.Println("  every lost drive came home through the destruction filter")
	for i := uint32(0); i < driveCount; i++ {
		if ad := must(im.Table.LoadAD(m.pool, i)); !ad.Rights.Has(obj.RightsAll) {
			log.Fatalf("DECAYED RIGHTS: pool slot %d holds %v: a check-in stored the client's copy", i, ad)
		}
	}
	fmt.Printf("  the pool holds all %d drives with full rights: every check-in amplified\n", driveCount)
}
