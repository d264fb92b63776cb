// Package inspect provides read-only views of a running system's object
// population: type histograms, storage accounting and reachability
// summaries. It is diagnostic tooling for the harness and the imax CLI —
// and a demonstration of the §7.1 observation that in a capability system
// "global system inquiries which are easily answered in most systems by
// consulting some central table become difficult": everything here works
// by sweeping the object table from outside the capability discipline,
// something no in-system domain could do.
package inspect

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obj"
)

// TypeCount is one row of a type histogram.
type TypeCount struct {
	Type    obj.Type
	Count   int
	Bytes   uint64 // data + access parts
	Swapped int
}

// Snapshot summarises an object table at one instant.
type Snapshot struct {
	Live       int
	Slots      int
	UsedBytes  uint64
	Pinned     int
	SwappedOut int
	ByType     []TypeCount
	// Reachable counts objects reachable from the pinned roots;
	// Unreachable = Live - Reachable is the collectible backlog.
	Reachable int
}

// Take sweeps the table and builds a snapshot.
func Take(t *obj.Table) *Snapshot {
	s := &Snapshot{Slots: t.Len()}
	byType := map[obj.Type]*TypeCount{}
	var roots []obj.Index
	for i := 1; i < t.Len(); i++ {
		idx := obj.Index(i)
		d := t.DescriptorAt(idx)
		if d == nil {
			continue
		}
		s.Live++
		size := uint64(d.DataLen) + uint64(d.AccessSlots)*obj.ADSlotSize
		s.UsedBytes += size
		tc := byType[d.Type]
		if tc == nil {
			tc = &TypeCount{Type: d.Type}
			byType[d.Type] = tc
		}
		tc.Count++
		tc.Bytes += size
		if d.SwappedOut {
			s.SwappedOut++
			tc.Swapped++
		}
		if d.Pinned {
			s.Pinned++
			roots = append(roots, idx)
		}
	}
	for _, tc := range byType {
		s.ByType = append(s.ByType, *tc)
	}
	// Most numerous first; types with equal counts in type order, not in
	// the map's.
	sort.Slice(s.ByType, func(i, j int) bool {
		a, b := s.ByType[i], s.ByType[j]
		return a.Count > b.Count || a.Count == b.Count && a.Type < b.Type
	})

	// Reachability sweep from pinned roots.
	seen := map[obj.Index]bool{}
	queue := append([]obj.Index(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		_ = t.Referents(idx, func(ad obj.AD) {
			if !seen[ad.Index] {
				seen[ad.Index] = true
				queue = append(queue, ad.Index)
			}
		})
	}
	s.Reachable = len(seen)
	return s
}

// Write renders the snapshot as a table.
func (s *Snapshot) Write(w io.Writer) {
	fmt.Fprintf(w, "objects: %d live in %d slots, %d bytes, %d pinned, %d swapped out\n",
		s.Live, s.Slots, s.UsedBytes, s.Pinned, s.SwappedOut)
	fmt.Fprintf(w, "reachable from roots: %d (%d collectible)\n", s.Reachable, s.Live-s.Reachable)
	fmt.Fprintf(w, "%-12s %8s %12s %8s\n", "type", "count", "bytes", "swapped")
	for _, tc := range s.ByType {
		fmt.Fprintf(w, "%-12s %8d %12d %8d\n", tc.Type, tc.Count, tc.Bytes, tc.Swapped)
	}
}
