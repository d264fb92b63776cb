package inject

// chaos_ledger_test.go is the negative side of the loop the ledger exists
// for. RunSeed itself re-derives every seed's damage-confinement verdict
// from the sealed ledger bytes alone and holds it to the live one
// (criterion 5; TestChaosCorpus runs it on every corpus seed). Here a
// hostile editor who re-seals a doctored stream flips the verdict but is
// caught by the root commitment; a corrupt volume (raw byte damage) is
// caught by the chain itself.

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/ledger"
	"repro/internal/trace"
)

// mustReplay is the world's sealed, self-verified ledger or a test failure.
func mustReplay(t *testing.T, w *World) *ledger.Replay {
	t.Helper()
	rep, err := w.IM.SealLedger()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func runPair(t *testing.T, seed int64) (refW, injW *World) {
	t.Helper()
	refW, err := BuildWorld(seed, Corners[0], false)
	if err != nil {
		t.Fatalf("seed %d: build reference: %v", seed, err)
	}
	if err := RunWorld(refW); err != nil {
		t.Fatalf("seed %d: reference run: %v", seed, err)
	}
	injW, err = BuildWorld(seed, Corners[0], true)
	if err != nil {
		t.Fatalf("seed %d: build injected: %v", seed, err)
	}
	if err := RunWorld(injW); err != nil {
		t.Fatalf("seed %d: injected run: %v", seed, err)
	}
	return refW, injW
}

// TestChaosLedgerTamperDetected: a hostile editor appends one forged
// store to a witness and re-seals — the stream is well-formed, the
// confinement verdict flips, and the forgery is detected because the
// re-sealed root no longer matches the root the run committed. A corrupt
// volume (raw flip, no re-seal) never even replays.
func TestChaosLedgerTamperDetected(t *testing.T) {
	seed := corpusSeeds(t)[1]
	refW, injW := runPair(t, seed)
	refRep := mustReplay(t, refW)
	injRep := mustReplay(t, injW)
	genuineRoot := injW.IM.Ledger.Root()

	ws := witnesses(refW, injW)
	if len(ws) < 2 {
		t.Fatalf("seed %d: %d witnesses, want two to forge one into the other", seed, len(ws))
	}
	if vs := audit.CheckConfinementFromLedger(refRep.Events, injRep.Events, ws); len(vs) != 0 {
		t.Fatalf("honest ledger already shows violations: %v", vs)
	}

	// Hostile editor: one extra store into the first witness, sequence
	// numbers kept clean, everything re-hashed from scratch.
	doctored := append([]trace.Event(nil), injRep.Events...)
	doctored = append(doctored, trace.Event{
		Seq:  doctored[len(doctored)-1].Seq + 1,
		Kind: trace.EvADStore,
		Obj:  uint32(ws[0]),
		Arg:  uint32(ws[1]),
	})
	forgedRep, err := ledger.Verify(ledger.Seal(doctored, ledger.Config{}))
	if err != nil {
		t.Fatalf("re-sealed forgery should be well-formed: %v", err)
	}
	if vs := audit.CheckConfinementFromLedger(refRep.Events, forgedRep.Events, ws); len(vs) != 1 || vs[0].Obj != ws[0] {
		t.Fatalf("forged store into witness %d: verdict %v, want one violation on it", ws[0], vs)
	}
	if forgedRep.Root == genuineRoot {
		t.Fatalf("forgery not detectable: re-sealed root equals the genuine commitment")
	}

	// Corrupt volume: raw damage without re-sealing fails structurally.
	raw := injW.IM.Ledger.Bytes()
	raw[len(raw)/2] ^= 0x10
	if _, err := ledger.Verify(raw); !errors.Is(err, ledger.ErrCorrupt) {
		t.Fatalf("raw corruption: got %v, want ErrCorrupt", err)
	}
	var ce *ledger.CorruptError
	if !errors.As(ledgerVerifyErr(raw), &ce) {
		t.Fatalf("raw corruption did not produce a *CorruptError")
	}
}

func ledgerVerifyErr(data []byte) error {
	_, err := ledger.Verify(data)
	return err
}
