package audit_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obj"
)

// TestConfinementViolationClasses: each class of the live verdict fires on
// exactly the change that should trigger it and names the witness changed;
// a swapped-out witness is judged by identity alone, and an object off the
// list is not judged however it changed.
func TestConfinementViolationClasses(t *testing.T) {
	spec := obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8, AccessSlots: 1}
	build := func() (*obj.Table, [2]obj.AD) {
		tab := obj.NewTable(1 << 12)
		var ads [2]obj.AD
		for i := range ads {
			ad, f := tab.Create(spec)
			if f != nil {
				t.Fatal(f)
			}
			ads[i] = ad
		}
		return tab, ads
	}
	must := func(f *obj.Fault) {
		t.Helper()
		if f != nil {
			t.Fatal(f)
		}
	}
	cases := []struct {
		name   string
		mutate func(tab *obj.Table, w, other obj.AD)
		want   string // "" = no violation
	}{
		{"untouched", func(*obj.Table, obj.AD, obj.AD) {}, ""},
		{"destroyed", func(tab *obj.Table, w, _ obj.AD) { must(tab.Destroy(w)) }, "destroyed"},
		{"recreated", func(tab *obj.Table, w, _ obj.AD) {
			must(tab.Destroy(w))
			if ad, f := tab.Create(spec); f != nil || ad.Index != w.Index {
				t.Fatalf("recreate: %v at %d, want index %d", f, ad.Index, w.Index)
			}
		}, "identity changed"},
		{"data", func(tab *obj.Table, w, _ obj.AD) { must(tab.WriteDWord(w, 4, 1)) }, "data byte 4"},
		{"access", func(tab *obj.Table, w, other obj.AD) { must(tab.StoreAD(w, 0, other)) }, "access slot 0"},
		{"swapped out", func(tab *obj.Table, w, _ obj.AD) { must(tab.SwapOut(w.Index, 1, math.MaxUint32, math.MaxUint32)) }, ""},
		{"unlisted", func(tab *obj.Table, _, other obj.AD) { must(tab.Destroy(other)) }, ""},
	}
	for _, tc := range cases {
		ref, _ := build()
		tab, ads := build()
		tc.mutate(tab, ads[0], ads[1])
		vs := (&audit.Auditor{Table: tab}).CheckConfinement(ref, []obj.Index{ads[0].Index})
		switch {
		case tc.want == "" && len(vs) != 0:
			t.Errorf("%s: unexpected violations %v", tc.name, vs)
		case tc.want != "" && (len(vs) != 1 || vs[0].Obj != ads[0].Index || !strings.Contains(vs[0].Msg, tc.want)):
			t.Errorf("%s: got %v, want one violation on object %d matching %q", tc.name, vs, ads[0].Index, tc.want)
		}
	}
}
