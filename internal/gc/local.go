package gc

import (
	"repro/internal/obj"
	"repro/internal/vtime"
)

// Local collection: the extension §8.1 sketches but iMAX's first release
// left unbuilt — "The local heap and level mechanisms effectively
// partition the system into nested sets of objects based on lifetime.
// Since object references can never escape from the level of the nest at
// which they were created, a local garbage collection strategy could be
// added to our global one."
//
// CollectLocal collects garbage *within one SRO's population* without a
// global mark: the level rule guarantees a reference to a local object can
// only be stored in objects at its level or deeper, so the roots of the
// local population are exactly the references into it held by objects
// outside it. The collector builds that remembered set with one scan of
// access parts, traces only within the population, and sweeps only the
// population. For a small heap in a big system that is far less work than
// a global cycle, which the last two rows of experiment E5 measure.
//
// The destruction-filter rules apply unchanged.

// CollectLocal runs one synchronous local collection over the objects
// allocated from the SRO at sroIdx. It reports the cycles consumed and
// the number of objects reclaimed or filtered. It must run while no
// mutator is between AD microcode steps, which the lock-step driver
// guarantees; unlike the global cycle it is not incremental (the paper
// suggests local collection "either asynchronously or synchronously" —
// this is the synchronous form).
func (c *Collector) CollectLocal(sroIdx obj.Index) (vtime.Cycles, int, *obj.Fault) {
	var spent vtime.Cycles

	// The population: live objects whose ancestral SRO is sroIdx.
	// members keeps it in table order, the order of the sweep: which slot
	// is freed last, and so reused first, must not depend on a map walk.
	pop := make(map[obj.Index]bool)
	var members []obj.Index
	c.Table.AliveBySRO(sroIdx, func(i obj.Index) {
		pop[i] = true
		members = append(members, i)
	})
	if len(pop) == 0 {
		return 0, 0, nil
	}

	// Remembered set: references into the population from outside it.
	// One pass over every live object's access part. (The real design
	// would maintain this set incrementally in the AD-move microcode;
	// one pass keeps the simulation honest about what must be known.)
	marked := make(map[obj.Index]bool)
	var queue []obj.Index
	for i := 1; i < c.Table.Len(); i++ {
		idx := obj.Index(i)
		if pop[idx] {
			continue // population members are not roots for themselves
		}
		if _, live := c.Table.ColorOf(idx); !live {
			continue
		}
		spent += vtime.CostGCMarkStep
		f := c.Table.Referents(idx, func(ad obj.AD) {
			if pop[ad.Index] && !marked[ad.Index] {
				marked[ad.Index] = true
				queue = append(queue, ad.Index)
			}
		})
		if f != nil {
			if f.Code == obj.FaultSegmentMoved {
				// A swapped-out object may hold references into
				// the population; without scanning it we cannot
				// prove anything dead. Abort conservatively.
				return spent, 0, obj.Faultf(obj.FaultSegmentMoved, obj.AD{Index: idx},
					"local collection needs all access parts resident")
			}
			return spent, 0, f
		}
	}

	// Trace within the population only.
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		spent += vtime.CostGCMarkStep
		f := c.Table.Referents(idx, func(ad obj.AD) {
			if pop[ad.Index] && !marked[ad.Index] {
				marked[ad.Index] = true
				queue = append(queue, ad.Index)
			}
		})
		if f != nil && f.Code != obj.FaultSegmentMoved {
			return spent, 0, f
		}
	}

	// Sweep the population only. disposeWhite is the global sweep's disposal:
	// reclaim, or deliver to the type's destruction filter, with the same
	// events and the same charges.
	disposed := c.stats.Reclaimed + c.stats.Filtered
	var fault *obj.Fault
	for _, idx := range members {
		if marked[idx] || c.Table.IsPinned(idx) {
			continue
		}
		cost, _, f := c.disposeWhite(idx)
		spent += cost
		if fault = f; f != nil {
			break
		}
	}
	return spent, int(c.stats.Reclaimed + c.stats.Filtered - disposed), fault
}
