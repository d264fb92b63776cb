package scenario

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/vtime"
)

// TestScenarioMemoryPressure is the mm soak: sessions big enough that the
// population cannot fit in physical memory, so building and serving them
// forces evictions, organic segment faults serviced by the §7.3 fault
// handler, swap-ins on the request path, and periodic compaction — all
// while the invariant auditor watches. These paths were previously
// exercised only by microtests; this is the first at-scale soak.
func TestScenarioMemoryPressure(t *testing.T) {
	// The population must exceed physical memory (2000 sessions × 2 KiB
	// against the preset's 2 MiB) or the swap path sits idle, so this
	// soak does not shrink under -short. It runs in well under a second.
	const n = 2_000
	eng, res := runPreset(t, "mempressure", n, 99, func(c *Config) {
		// Swap-thrashed batch requests have a long tail; give the drain
		// phase room so censoring measures faults, not patience.
		c.DrainBudget = 200_000_000
	})

	// The full request population must be served: memory pressure slows
	// requests down but must not lose them.
	const want = n
	if res.Issued != want {
		t.Fatalf("issued %d, want %d", res.Issued, want)
	}
	if res.Completed != want {
		t.Fatalf("completed %d of %d (censored %d): swapping lost requests",
			res.Completed, want, res.Censored)
	}

	// The memory manager must have been load-bearing, not idle.
	if res.SwapOuts == 0 || res.Evictions == 0 {
		t.Fatalf("no eviction activity: swap_outs=%d evictions=%d", res.SwapOuts, res.Evictions)
	}
	if res.SwapIns == 0 {
		t.Fatalf("no swap-ins: the request path never touched a swapped object")
	}
	if res.FaultsServiced == 0 {
		t.Fatalf("fault handler serviced no segment faults")
	}
	if res.Compactions == 0 {
		t.Fatalf("compaction never ran (CompactEvery=%d, virtual run %d cycles)",
			eng.Cfg.CompactEvery, res.VirtualCycles)
	}

	// Swapping must remain invisible to correctness: every session's
	// touched dwords carry exactly its completed request count.
	assertSessionWitness(t, eng)

	// Invariant audit and level discipline over the final world.
	audit.Check(t, eng.IM.System)
	if vs := eng.IM.CheckLevels(); len(vs) > 0 {
		t.Fatalf("level discipline violated: %v", vs[0])
	}
}

// TestMemPressureCompactionAccount logs the numbers behind DESIGN.md §5's
// compaction row: how many passes the mempressure preset makes, how many
// segments they move and how many resident descriptors a pass visits
// (beside the table slots a pass over the whole table would visit), next to
// the same run with the mechanism off. The visits are what a compactor that
// paid for its walk would be charged for (DESIGN.md §6); today they are
// free. It must do something when on (moves >
// 0, every request served) and nothing when off (CompactEvery 0: no pass).
// What off costs at this size is logged, not asserted: two segment faults
// are never serviced and the 39 requests behind them are censored at the
// drain deadline.
func TestMemPressureCompactionAccount(t *testing.T) {
	const n = 2_000
	for _, every := range []uint64{100_000, 0} {
		eng, res := runPreset(t, "mempressure", n, 99, func(c *Config) {
			c.DrainBudget = 200_000_000
			c.CompactEvery = vtime.Cycles(every)
		})
		m, visits := eng.IM.Table.Memory(), eng.IM.Swapper.CompactVisits
		t.Logf("CompactEvery %d: %d passes, %d moves, %d resident descriptors visited (%d per pass), %d table slots; %d of %d requests completed, %d censored, %d of %d segment faults serviced; largest free extent %d bytes of %d free",
			every, res.Compactions, res.CompactMoves, visits, visits/max(res.Compactions, 1), eng.IM.Table.Len(), res.Completed, res.Issued, res.Censored,
			res.FaultsServiced, eng.IM.Stats().FaultsSent, m.LargestFree(), m.Size()-m.Used())
		if every == 0 {
			if res.Compactions != 0 {
				t.Errorf("CompactEvery 0 made %d passes", res.Compactions)
			}
		} else if res.CompactMoves == 0 || res.Completed != res.Issued {
			t.Errorf("CompactEvery %d: %d passes moved %d segments, %d of %d requests completed",
				every, res.Compactions, res.CompactMoves, res.Completed, res.Issued)
		} else if slots := uint64(eng.IM.Table.Len()) * res.Compactions; visits == 0 || visits >= slots {
			t.Errorf("CompactEvery %d: %d descriptors visited where as many passes over the whole table visit %d", every, visits, slots)
		}
	}
}

// TestSwapPathAllocBound holds the swap path to its allocation contract.
// Once New has built the population and filled memory, a request that
// faults its session in costs the host nothing of its own: the segment
// fault comes from the object table's slab, 256 to an allocation, and the
// image travels between the memory window and a slot of the backing store's
// arena, so nothing is paid per byte moved, and neither the store's index
// nor the object table grows in the run. At most 0.04 objects and 90 bytes
// per completed request: 0.030 and 79 today, the margins about 20 objects
// and 11 bytes a request. 0.046 and 79 when each image held a Go buffer of
// its own. 1.06 and 85 when every segment fault was its own allocation;
// 1.06 and 124 when every image carried its zero tail, most of the bytes
// being the anchor blocks evicted once as the run starts; 6.7 and 2 200 at
// 20 000 sessions when every image was a fresh slice and every fault
// formatted its detail.
func TestSwapPathAllocBound(t *testing.T) {
	const n = 2_000
	cfg, err := Preset("mempressure", n, 99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DrainBudget = 200_000_000
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	mallocs, allocated := hostAllocs(nil, func() { res, err = e.Run() })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Issued || res.SwapIns == 0 {
		t.Fatalf("completed %d of %d requests with %d swap-ins", res.Completed, res.Issued, res.SwapIns)
	}
	objects := float64(mallocs) / float64(res.Completed)
	bytes := float64(allocated) / float64(res.Completed)
	t.Logf("%d requests, %d swap-ins: %.3f objects and %.1f bytes allocated per completed request", res.Completed, res.SwapIns, objects, bytes)
	if objects > 0.04 || bytes > 90 {
		t.Errorf("Engine.Run allocates %.3f objects and %.1f bytes per completed request; want at most 0.04 and 90", objects, bytes)
	}
}

// assertSessionWitness verifies the byte-level service witness: dword d of
// a session object equals the session's completed count for every touched
// dword of its class program.
func assertSessionWitness(t *testing.T, eng *Engine) {
	t.Helper()
	for i := range eng.Sessions {
		s := &eng.Sessions[i]
		if eng.IM.Swapper != nil {
			// The post-run read is host-side: restore residency first
			// (a VM process would fault to the handler instead).
			if f := eng.IM.Swapper.EnsureResident(s.Obj.Index); f != nil {
				t.Fatalf("session %d unrestorable: %v", i, f)
			}
		}
		touches := eng.Classes[s.Class].Spec.Touches
		for d := uint32(0); d < touches; d++ {
			v, f := eng.IM.Table.ReadDWord(s.Obj, d*4)
			if f != nil {
				t.Fatalf("session %d dword %d unreadable: %v", i, d, f)
			}
			if v != uint32(s.Completed) {
				t.Fatalf("session %d dword %d = %d, want %d completed requests",
					i, d, v, s.Completed)
			}
		}
	}
}
