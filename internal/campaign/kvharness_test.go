package campaign

import (
	"fmt"
	"testing"
)

// TestCheckRecoveryAllGreen is the acceptance gate for the crash-
// recovery oracle: workers 1/4/8 × batch 8/32, each run killed
// mid-commit at a seeded point, each recovered state equal to the
// survivor state of exactly the acknowledged batches.
func TestCheckRecoveryAllGreen(t *testing.T) {
	results, err := checkRecovery(&suite{cfg: Config{Seed: 42, Requests: 200}})
	if err != nil {
		t.Fatalf("checkRecovery: %v", err)
	}
	var want []string
	for _, w := range oracleWorkers {
		for _, b := range oracleBatches {
			want = append(want, fmt.Sprintf("kv-crash(w=%d,b=%d)", w, b))
		}
	}
	if len(results) != len(want) {
		t.Fatalf("got %d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if !r.Pass || r.Scenario != want[i] {
			t.Errorf("row %d: %s, want a pass on %s", i, r, want[i])
		}
	}
}

// TestRecoveryRunTearsTail asserts the seeded kill tears the WAL tail
// on every seed — the scenario's whole point is exercising torn-tail
// truncation, not just clean shutdown — and that each recovered state
// is the committed prefix.
func TestRecoveryRunTearsTail(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		run, err := runRecovery(RecoveryScenario{Seed: seed, Workers: 4, Batch: 8, Requests: 160})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.RecoveredDigest != run.CommittedDigest {
			t.Errorf("seed %d: digest mismatch (acked %d/%d)", seed, run.AckedBatches, run.TotalBatches)
		}
		if !run.TornTail {
			t.Errorf("seed %d: the kill left no torn tail", seed)
		}
	}
}

// TestClusterDifferentialOracle runs the campaign's cluster==pool
// differential oracle at node counts 1/2/4: every scenario family must
// produce identical per-request outcomes and survivor digests on both
// sides.
func TestClusterDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential oracle is not short")
	}
	results, err := checkCluster(&suite{cfg: Config{Seed: 42, Requests: 72}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("oracle produced no results")
	}
	for _, res := range results {
		if !res.Pass {
			t.Errorf("FAIL %s: %s", res.Scenario, res.Detail)
		}
	}
}
