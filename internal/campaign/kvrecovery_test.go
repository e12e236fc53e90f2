package campaign

import (
	"testing"
)

// TestCheckRecoveryAllGreen is the acceptance gate for the crash-
// recovery oracle: workers 1/4/8 × batch 8/32, each run killed
// mid-commit at a seeded point, each recovered state equal to the
// survivor state of exactly the acknowledged batches.
func TestCheckRecoveryAllGreen(t *testing.T) {
	h := &RecoveryHarness{Dir: t.TempDir()}
	results, err := CheckRecovery(h, 42, 200, []int{1, 4, 8}, []int{8, 32})
	if err != nil {
		t.Fatalf("CheckRecovery: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("%s", r)
		}
	}
}

// TestRecoveryRunTearsTail asserts the seeded kill actually produces a
// torn WAL tail in at least one of a few seeds — the scenario's whole
// point is exercising torn-tail truncation, not just clean shutdown.
func TestRecoveryRunTearsTail(t *testing.T) {
	h := &RecoveryHarness{Dir: t.TempDir()}
	torn := false
	for seed := uint64(1); seed <= 5 && !torn; seed++ {
		run, err := h.RunRecovery(RecoveryScenario{Seed: seed, Workers: 4, Batch: 8, Requests: 160})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.RecoveredDigest != run.CommittedDigest {
			t.Fatalf("seed %d: digest mismatch (acked %d/%d)", seed, run.AckedBatches, run.TotalBatches)
		}
		torn = torn || run.TornTail
	}
	if !torn {
		t.Fatal("no seed produced a torn tail")
	}
}
