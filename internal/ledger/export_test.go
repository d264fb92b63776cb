package ledger

// PackedBytes reports the bytes s holds its sealed segments in, the packed
// form and nothing else: not the slab tails or the index slices.
func PackedBytes(s *Sink) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.join()
	n := 0
	for _, seg := range s.segs {
		n += len(seg)
	}
	return n
}
