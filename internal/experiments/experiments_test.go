package experiments

import "testing"

// TestRegistryComplete pins the experiment inventory to DESIGN.md §4.
func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("E99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestFastExperimentsPass runs the quick experiments end to end; the
// slower ones run in TestSlowExperimentsPass, which -short skips.
func TestFastExperimentsPass(t *testing.T) {
	for _, id := range []string{"E1", "E7", "E10", "E11", "E12", "E13"} {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass {
				t.Errorf("%s did not reproduce: %s", id, res.Verdict)
			}
			if res.Claim == "" || res.Verdict == "" || len(res.Rows) == 0 {
				t.Errorf("%s result incomplete: %+v", id, res)
			}
		})
	}
}

func TestSlowExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("slow sweeps skipped with -short")
	}
	for _, id := range []string{"E2", "E3", "E4", "E5", "E6", "E8", "E9", "E14"} {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Pass {
				t.Errorf("%s did not reproduce: %s", id, res.Verdict)
			}
		})
	}
}
