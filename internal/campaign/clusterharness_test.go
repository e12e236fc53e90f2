package campaign

import (
	"testing"
)

// TestClusterDifferentialOracle runs the campaign's cluster==pool
// differential oracle at node counts 1 and 2 (nodes 1/2/4 run in the
// campaign smoke): every scenario family must produce identical
// per-request outcomes and survivor digests on both sides.
func TestClusterDifferentialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("differential oracle is not short")
	}
	results, err := CheckCluster(42, 72, []int{1, 2})
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
