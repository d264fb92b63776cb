package obj

// The access fault pin: testdata/access_faults.txt records Error() of what
// each single-shot accessor answers in each refusal class: a nil AD, a
// dangling AD, a capability without the accessor's right, a swapped-out
// object, a displacement or slot past its part, and for the two AD stores a
// dangling source and the level rule. The file was written at the parent of
// the commit that restated the accessors over View, and is never
// regenerated by a test.

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

const accessFaultsPath = "testdata/access_faults.txt"

func TestAccessFaultTexts(t *testing.T) {
	tab := NewTable(1 << 16)
	ad := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 2, DataLen: 16, AccessSlots: 2})
	local := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, Level: 5, DataLen: 4})
	dangling := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 16, AccessSlots: 2})
	if f := tab.Destroy(dangling); f != nil {
		t.Fatal(f)
	}
	swapped := mustCreate(t, tab, CreateSpec{Type: TypeGeneric, DataLen: 16, AccessSlots: 2})
	if f := tab.SwapOut(swapped.Index, 9, math.MaxUint32, math.MaxUint32); f != nil {
		t.Fatal(f)
	}

	accessors := []struct {
		name string
		want Rights
		past uint32 // a displacement or slot the access does not fit at
		do   func(a AD, at uint32, src AD) *Fault
	}{
		{"ReadByteAt", RightRead, 16, func(a AD, at uint32, _ AD) *Fault { _, f := tab.ReadByteAt(a, at); return f }},
		{"WriteByteAt", RightWrite, 16, func(a AD, at uint32, _ AD) *Fault { return tab.WriteByteAt(a, at, 1) }},
		{"ReadDWord", RightRead, 13, func(a AD, at uint32, _ AD) *Fault { _, f := tab.ReadDWord(a, at); return f }},
		{"WriteDWord", RightWrite, 13, func(a AD, at uint32, _ AD) *Fault { return tab.WriteDWord(a, at, 1) }},
		{"ReadBytes", RightRead, 9, func(a AD, at uint32, _ AD) *Fault { _, f := tab.ReadBytes(a, at, 8); return f }},
		{"WriteBytes", RightWrite, 9, func(a AD, at uint32, _ AD) *Fault { return tab.WriteBytes(a, at, make([]byte, 8)) }},
		{"LoadAD", RightRead, 2, func(a AD, at uint32, _ AD) *Fault { _, f := tab.LoadAD(a, at); return f }},
		{"StoreAD", RightWrite, 2, func(a AD, at uint32, src AD) *Fault { return tab.StoreAD(a, at, src) }},
		{"StoreADSystem", RightWrite, 2, func(a AD, at uint32, src AD) *Fault { return tab.StoreADSystem(a, at, src) }},
	}
	var got strings.Builder
	for _, acc := range accessors {
		row := func(class string, f *Fault) {
			text := "ok"
			if f != nil {
				text = f.Error()
			}
			fmt.Fprintf(&got, "%s/%s: %s\n", acc.name, class, text)
		}
		row("nil", acc.do(NilAD, 0, NilAD))
		row("dangling", acc.do(dangling, 0, NilAD))
		row("right", acc.do(ad.Restrict(acc.want), 0, NilAD))
		row("swapped", acc.do(swapped, 0, NilAD))
		row("past", acc.do(ad, acc.past, NilAD))
		if strings.HasPrefix(acc.name, "StoreAD") {
			row("source-dangling", acc.do(ad, 0, dangling))
			row("level", acc.do(ad, 1, local))
		}
	}

	raw, err := os.ReadFile(accessFaultsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	lines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	for i := 0; i < max(len(lines), len(want)); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("row %d moved off %s:\n got %s\nwant %s", i, accessFaultsPath, g, w)
		}
	}
}
