package inject

// chaos_ledger_test.go closes the loop the ledger exists for: a chaos
// run's damage-confinement verdict must be re-derivable from the sealed
// ledger bytes alone — no live object table — and must agree with the
// live audit.CheckConfinement verdict for every corpus seed. A hostile
// editor who re-seals a doctored stream flips the verdict but is caught
// by the root commitment; a corrupt volume (raw byte damage) is caught by
// the chain itself.

import (
	"errors"
	"testing"

	"repro/internal/audit"
	"repro/internal/ledger"
	"repro/internal/obj"
	"repro/internal/trace"
)

// blastRadiusFromLedger derives the exclusion seeds and the deliberately
// destroyed objects purely from an injected run's replayed events: every
// fault delivery names its process, every injection names its victim.
// This over-excludes relative to the live harness (a serviced segment
// fault also lands its process here), which can only weaken the check,
// never produce a spurious violation.
func blastRadiusFromLedger(events []trace.Event) (excluded, destroyed []obj.Index) {
	for _, ev := range events {
		switch ev.Kind {
		case trace.EvFault:
			excluded = append(excluded, obj.Index(ev.Obj))
		case trace.EvInject:
			v := obj.Index(ev.Obj)
			if v == obj.NilIndex {
				continue
			}
			if Kind(ev.Arg) == KindDestroyMidMark {
				destroyed = append(destroyed, v)
			} else {
				excluded = append(excluded, v)
			}
		}
	}
	return excluded, destroyed
}

// sealedReplay closes a world's ledger and verifies its bytes.
func sealedReplay(t *testing.T, w *World) *ledger.Replay {
	t.Helper()
	w.IM.Ledger.Close()
	rep, err := ledger.Verify(w.IM.Ledger.Bytes())
	if err != nil {
		t.Fatalf("chaos ledger failed verification: %v", err)
	}
	if rep.Root != w.IM.Ledger.Root() {
		t.Fatalf("replayed root differs from the sink's")
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

// TestChaosLedgerReverification: for every corpus seed, (a) the ledger's
// replayed per-kind counters equal the live ring's, and (b) the
// ledger-only confinement verdict equals the live checkWorld verdict.
func TestChaosLedgerReverification(t *testing.T) {
	for _, seed := range corpusSeeds(t) {
		refW, injW := runPair(t, seed)
		liveProblems := checkWorld(injW, audit.SnapshotReachable(refW.IM.Table))

		refRep := sealedReplay(t, refW)
		injRep := sealedReplay(t, injW)

		for _, pair := range []struct {
			name string
			w    *World
			rep  *ledger.Replay
		}{{"reference", refW, refRep}, {"injected", injW, injRep}} {
			seq, counts := pair.w.IM.TraceLog.Snapshot()
			if uint64(len(pair.rep.Events)) != seq {
				t.Fatalf("seed %d: %s ledger replayed %d events, ring emitted %d",
					seed, pair.name, len(pair.rep.Events), seq)
			}
			for k, n := range counts {
				if pair.rep.Counts[k] != n {
					t.Fatalf("seed %d: %s kind %v: ledger %d, ring %d",
						seed, pair.name, trace.Kind(k), pair.rep.Counts[k], n)
				}
			}
		}

		excluded, destroyed := blastRadiusFromLedger(injRep.Events)
		vs := audit.CheckConfinementFromLedger(refRep.Events, injRep.Events, excluded, destroyed)
		if (len(vs) == 0) != (len(liveProblems) == 0) {
			t.Fatalf("seed %d: ledger verdict (%d violations) disagrees with live verdict (%d problems)\nledger: %v\nlive: %v",
				seed, len(vs), len(liveProblems), vs, liveProblems)
		}
	}
}

// TestChaosLedgerTamperDetected: a hostile editor appends one forged
// store to a bystander and re-seals — the stream is well-formed, the
// confinement verdict flips, and the forgery is detected because the
// re-sealed root no longer matches the root the run committed. A corrupt
// volume (raw flip, no re-seal) never even replays.
func TestChaosLedgerTamperDetected(t *testing.T) {
	seed := corpusSeeds(t)[0]
	refW, injW := runPair(t, seed)
	refRep := sealedReplay(t, refW)
	injRep := sealedReplay(t, injW)
	genuineRoot := injW.IM.Ledger.Root()

	excluded, destroyed := blastRadiusFromLedger(injRep.Events)
	if vs := audit.CheckConfinementFromLedger(refRep.Events, injRep.Events, excluded, destroyed); len(vs) != 0 {
		t.Fatalf("honest ledger already shows violations: %v", vs)
	}

	// Hostile editor: one extra store into a bystander, sequence numbers
	// kept clean, everything re-hashed from scratch. A bystander can
	// itself be an injection victim (a swap-out picks arbitrary objects)
	// and then it is legitimately outside the compared set, so try each
	// until one flips the verdict — at least one must.
	var forgedRep *ledger.Replay
	for i, b := range injW.Bystanders {
		doctored := append([]trace.Event(nil), injRep.Events...)
		doctored = append(doctored, trace.Event{
			Seq:  doctored[len(doctored)-1].Seq + 1,
			Kind: trace.EvADStore,
			Obj:  uint32(b.Index),
			Arg:  uint32(injW.Bystanders[(i+1)%len(injW.Bystanders)].Index),
			Aux:  0,
		})
		rep, err := ledger.Verify(ledger.Seal(doctored, ledger.Config{}))
		if err != nil {
			t.Fatalf("re-sealed forgery should be well-formed: %v", err)
		}
		if len(audit.CheckConfinementFromLedger(refRep.Events, rep.Events, excluded, destroyed)) > 0 {
			forgedRep = rep
			break
		}
	}
	if forgedRep == nil {
		t.Fatalf("no forged bystander store flipped the confinement verdict")
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
