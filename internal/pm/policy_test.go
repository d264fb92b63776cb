package pm

import (
	"testing"

	"repro/internal/gdp"
	"repro/internal/obj"
)

func TestNullPolicyPassesParametersThrough(t *testing.T) {
	sys, err := gdp.New(gdp.Config{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBasic(sys)
	dom := spinDomain(t, sys, 5)
	p, f := b.CreateProcess(dom, obj.NilAD, gdp.SpawnSpec{Priority: 1, TimeSlice: 100})
	if f != nil {
		t.Fatal(f)
	}
	// The null policy imposes nothing: adopting a client leaves whatever
	// the user asked for in the hardware parameters, and no daemon runs
	// (§6.1). The fair scheduler takes the time slice over.
	check := func(policy string, wantSlice uint32, wantDaemon bool) {
		t.Helper()
		s, err := Select(policy, b, 500)
		if err != nil {
			t.Fatal(err)
		}
		if f := s.Adopt(p); f != nil {
			t.Fatal(f)
		}
		if f := s.Launch(10_000, 15); f != nil {
			t.Fatal(f)
		}
		if prio := opened(sys, p).Priority(); prio != 1 {
			t.Fatalf("%s: priority = %d", policy, prio)
		}
		if ts := opened(sys, p).TimeSlice(); ts != wantSlice {
			t.Fatalf("%s: time slice = %d, want %d", policy, ts, wantSlice)
		}
		if s.Daemon.Valid() != wantDaemon {
			t.Fatalf("%s: daemon spawned = %v", policy, s.Daemon.Valid())
		}
	}
	check("null", 100, false)
	check("fair", 500, true)
}
