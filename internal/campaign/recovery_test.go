package campaign

import (
	"strings"
	"testing"
)

func TestCheckRecoveryVerdicts(t *testing.T) {
	sc := RecoveryScenario{Seed: 1, Workers: 4, Batch: 8, Requests: 40}
	cases := []struct {
		name string
		run  RecoveryRun
		want string // "" = pass, else a substring of the failure detail
	}{
		{"healthy", RecoveryRun{CommittedDigest: "a", RecoveredDigest: "a", AckedBatches: 2, TotalBatches: 5, TornTail: true}, ""},
		{"digest mismatch", RecoveryRun{CommittedDigest: "a", RecoveredDigest: "b", AckedBatches: 2, TotalBatches: 5, TornTail: true}, "!= committed prefix"},
		{"kill never fired", RecoveryRun{CommittedDigest: "a", RecoveredDigest: "a", AckedBatches: 5, TotalBatches: 5, TornTail: true}, "kill never fired"},
		{"nothing committed", RecoveryRun{CommittedDigest: "a", RecoveredDigest: "a", AckedBatches: 0, TotalBatches: 5, TornTail: true}, "no batch committed"},
		{"no torn tail", RecoveryRun{CommittedDigest: "a", RecoveredDigest: "a", AckedBatches: 2, TotalBatches: 5}, "no torn tail"},
	}
	for _, tc := range cases {
		res := judgeRecovery(sc, tc.run)
		if res.Oracle != "recovery" || res.Scenario != "kv-crash(w=4,b=8)" {
			t.Errorf("%s: verdict labelled %q %q", tc.name, res.Oracle, res.Scenario)
		}
		if res.Pass != (tc.want == "") || !strings.Contains(res.Detail, tc.want) {
			t.Errorf("%s: got %s, want detail %q", tc.name, res, tc.want)
		}
	}
}

// TestCheckRecoveryFloorsShortRuns runs the oracle on real servers at a
// request count too short for any batch size: every run is floored to
// four batches, so each row still kills after a committed batch and
// tears the tail — the verdict's guards would fail a vacuous row.
func TestCheckRecoveryFloorsShortRuns(t *testing.T) {
	results, err := checkRecovery(&suite{cfg: Config{Seed: 1, Requests: 1}})
	if err != nil {
		t.Fatalf("checkRecovery: %v", err)
	}
	if len(results) != len(oracleWorkers)*len(oracleBatches) {
		t.Fatalf("got %d results, want %d", len(results), len(oracleWorkers)*len(oracleBatches))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("%s", r)
		}
	}
}

func TestDigestStateDeterministicAndSensitive(t *testing.T) {
	a := map[string][]byte{"k1": []byte("v1"), "k2": []byte("v2")}
	b := map[string][]byte{"k2": []byte("v2"), "k1": []byte("v1")}
	if DigestState(a) != DigestState(b) {
		t.Fatal("digest depends on construction order")
	}
	c := map[string][]byte{"k1": []byte("v1"), "k2": []byte("vX")}
	if DigestState(a) == DigestState(c) {
		t.Fatal("digest insensitive to values")
	}
	if DigestState(map[string][]byte{}) == DigestState(a) {
		t.Fatal("empty state collides")
	}
}
