package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obj"
)

func init() { register("E14", runE14) }

// runE14 exercises the §7.2 filing claim: an object's hardware-recognised
// type identity is preserved and checked no matter what path it follows,
// including a storage system that existed before the types it carries.
// The experiment passivates a population of mixed-type object graphs,
// activates them back, and verifies structure, contents and type labels;
// a corruption probe confirms damaged images are detected, and an
// unbound-type probe confirms identity cannot be conjured.
func runE14() *Result {
	const graphs = 300

	im := try(core.Boot(core.Config{Filing: true, MemoryBytes: 64 << 20}))
	tdoA := must(im.TDOs.Define("account", obj.LevelGlobal, obj.NilIndex))
	tdoB := must(im.TDOs.Define("ledger", obj.LevelGlobal, obj.NilIndex))
	check(im.Publish(0, tdoA))
	check(im.Publish(1, tdoB))
	check(im.Files.BindType("account", tdoA))
	check(im.Files.BindType("ledger", tdoB))

	// Each graph: a ledger holding two accounts, one shared data leaf.
	var tokens []uint64
	for i := 0; i < graphs; i++ {
		ledger := must(im.TDOs.CreateInstance(tdoB, obj.CreateSpec{DataLen: 16, AccessSlots: 3}))
		leaf := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 8}))
		check(im.Table.WriteDWord(leaf, 0, uint32(i)))
		for slot := uint32(0); slot < 2; slot++ {
			acct := must(im.TDOs.CreateInstance(tdoA, obj.CreateSpec{DataLen: 8, AccessSlots: 1}))
			check(im.Table.WriteDWord(acct, 0, uint32(i)*10+slot))
			check(im.Table.StoreAD(acct, 0, leaf))
			check(im.Table.StoreAD(ledger, slot, acct))
		}
		tokens = append(tokens, try(im.Files.Passivate(ledger)))
	}

	// Activate everything back and verify.
	typesOK, structureOK, contentsOK := 0, 0, 0
	for i, tok := range tokens {
		back := try(im.Files.Activate(tok, im.Heap))
		if ok, _ := im.TDOs.Is(tdoB, back); ok {
			typesOK++
		}
		a0, _ := im.Table.LoadAD(back, 0)
		a1, _ := im.Table.LoadAD(back, 1)
		okA0, _ := im.TDOs.Is(tdoA, a0)
		okA1, _ := im.TDOs.Is(tdoA, a1)
		if okA0 && okA1 {
			typesOK++
		}
		l0, _ := im.Table.LoadAD(a0, 0)
		l1, _ := im.Table.LoadAD(a1, 0)
		if l0.Valid() && l0.Index == l1.Index {
			structureOK++ // the shared leaf stayed shared
		}
		if v, _ := im.Table.ReadDWord(l0, 0); v == uint32(i) {
			contentsOK++
		}
	}

	// Probes.
	probe := must(im.MM.Allocate(im.Heap, obj.CreateSpec{Type: obj.TypeGeneric, DataLen: 16}))
	probeTok := try(im.Files.Passivate(probe))
	checkErr(im.Files.Corrupt(probeTok, 9))
	_, corrErr := im.Files.Activate(probeTok, im.Heap)

	orphanTDO := must(im.TDOs.Define("orphan", obj.LevelGlobal, obj.NilIndex))
	check(im.Publish(2, orphanTDO))
	orphan := must(im.TDOs.CreateInstance(orphanTDO, obj.CreateSpec{DataLen: 4}))
	_, unboundErr := im.Files.Activate(try(im.Files.Passivate(orphan)), im.Heap)

	res := &Result{
		ID:     "E14",
		Title:  "Object filing preserves hardware type identity",
		Claim:  "§7.2: type identity is guaranteed to be preserved and checked across any storage channel, for user-defined types too",
		Header: []string{"check", "result"},
		Rows: [][]string{
			row("graphs filed / activated", fmt.Sprintf("%d / %d", graphs, graphs)),
			row("type labels preserved", fmt.Sprintf("%d / %d", typesOK, 2*graphs)),
			row("shared structure preserved", fmt.Sprintf("%d / %d", structureOK, graphs)),
			row("contents preserved", fmt.Sprintf("%d / %d", contentsOK, graphs)),
			row("corrupted image detected", fmt.Sprint(corrErr != nil)),
			row("unbound type refused", fmt.Sprint(unboundErr != nil)),
		},
		Notes: []string{
			"user types re-bind by name through the live TDO registry: filing preserves identity, it never mints it",
		},
	}
	res.Pass = typesOK == 2*graphs && structureOK == graphs && contentsOK == graphs &&
		corrErr != nil && unboundErr != nil
	res.Verdict = fmt.Sprintf("%d graphs round-tripped with types, sharing and contents intact; damage and forgery refused", graphs)
	return res
}
