package main

import "time"

// span is one timed call the runner made into a layer. Spans nest by
// Parent (an index into the same list, -1 at the top) and carry the
// workload and repetition they belong to.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      string `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spans records in memory; the runner writes them out once, at exit. A nil
// recorder is valid and records nothing, which is what untraced
// repetitions pass.
type spans struct {
	t0       time.Time
	all      []span
	open     []int
	workload string
	rep      string
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns the function that closes it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.all)
	s.all = append(s.all, span{ID: id, Parent: parent, Name: name, Workload: s.workload, Rep: s.rep, StartNs: time.Since(s.t0).Nanoseconds()})
	s.open = append(s.open, id)
	return func() {
		s.all[id].EndNs = time.Since(s.t0).Nanoseconds()
		s.open = s.open[:len(s.open)-1]
	}
}
