package campaign

import (
	"fmt"
	"sort"
)

// This file defines the crash-recovery differential oracle. The
// campaign's other oracles compare executions that all finish; this one
// compares an execution that is killed mid-batch — the durability
// engine's torn group commit — against the serially derived survivor
// state of the committed prefix. The oracle here defines the scenario
// seeding, the digest currency, and the verdict; RecoveryHarness
// (kvrecovery.go) runs it on a real durable kvstore server.

// RecoveryScenario seeds one crash-recovery run: a deterministic
// workload of Requests requests over Workers worker domains, submitted
// in batches of Batch, with the executor killed mid-commit at a
// seed-derived batch.
type RecoveryScenario struct {
	Seed     uint64
	Workers  int
	Batch    int
	Requests int
}

// RecoveryRun is what a RecoveryRunner observed: the survivor digest of
// the state every acknowledged batch built (maintained host-side as the
// run progressed), and the digest of the state a fresh process
// recovered from the store after the kill.
type RecoveryRun struct {
	// CommittedDigest is DigestState of the acknowledged prefix's
	// expected state.
	CommittedDigest string
	// RecoveredDigest is DigestState of the state recovered from disk.
	RecoveredDigest string
	// AckedBatches is how many batches fully committed before the kill;
	// TotalBatches is how many the full run would have submitted.
	AckedBatches int
	TotalBatches int
	// TornTail reports that recovery truncated a torn WAL tail — the
	// kill landed mid-frame, the scenario's whole point.
	TornTail bool
}

// RecoveryRunner executes one crash-recovery scenario end to end:
// run, kill mid-commit, recover in a fresh process, digest both sides.
type RecoveryRunner interface {
	RunRecovery(RecoveryScenario) (RecoveryRun, error)
}

// DigestState deterministically digests a key→value state map — the
// shared currency between a runner's shadow survivor state and its
// recovered dump.
func DigestState(items map[string][]byte) string {
	keys := make([]string, 0, len(items))
	for k := range items {
		keys = append(keys, k)
	}
	// Deterministic order: host map iteration is randomized.
	sort.Strings(keys)
	d := newDigest()
	for _, k := range keys {
		d.str(k)
		d.bytes(items[k])
		d.bytes([]byte{0})
	}
	return d.hex()
}

// CheckRecovery runs the crash-recovery oracle across worker counts and
// batch sizes: for every combination the runner is killed mid-commit at
// a seeded point, recovered, and the recovered state must equal the
// survivor state of exactly the acknowledged batches — no committed
// write lost, no aborted write surviving. Defaults: workers 1/4/8,
// batches 8/32.
func CheckRecovery(r RecoveryRunner, seed uint64, requests int, workerCounts, batchSizes []int) ([]OracleResult, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 4, 8}
	}
	if len(batchSizes) == 0 {
		batchSizes = []int{8, 32}
	}
	if requests <= 0 {
		requests = 200
	}
	var results []OracleResult
	for _, w := range workerCounts {
		for _, b := range batchSizes {
			// The kill lands in the run's second half, and the verdict
			// requires at least one committed batch before it and one
			// killed after: a run shorter than four batches cannot place
			// that, so small -requests values are floored per batch size
			// rather than silently producing a vacuous scenario.
			n := requests
			if minReq := 4 * b; n < minReq {
				n = minReq
			}
			sc := RecoveryScenario{Seed: seed, Workers: w, Batch: b, Requests: n}
			run, err := r.RunRecovery(sc)
			if err != nil {
				return results, fmt.Errorf("campaign: recovery w=%d b=%d: %w", w, b, err)
			}
			res := OracleResult{
				Oracle:   "recovery",
				Scenario: fmt.Sprintf("kv-crash(w=%d,b=%d)", w, b),
				Pass:     true,
			}
			switch {
			case run.RecoveredDigest != run.CommittedDigest:
				res.Pass = false
				res.Detail = fmt.Sprintf("recovered state %s != committed prefix %s (acked %d/%d batches)",
					run.RecoveredDigest, run.CommittedDigest, run.AckedBatches, run.TotalBatches)
			case run.AckedBatches >= run.TotalBatches:
				res.Pass = false
				res.Detail = fmt.Sprintf("kill never fired: acked %d of %d batches", run.AckedBatches, run.TotalBatches)
			case run.AckedBatches == 0:
				res.Pass = false
				res.Detail = "no batch committed before the kill; scenario checks nothing"
			}
			results = append(results, res)
		}
	}
	return results, nil
}
