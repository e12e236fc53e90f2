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
// seeding, the digest currency, and the verdict; runRecovery
// (kvharness.go) runs it on a real durable kvstore server.

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

// RecoveryRun is what one crash-recovery run observed: the survivor
// digest of the state every acknowledged batch built (maintained
// host-side as the run progressed), and the digest of the state a fresh
// process recovered from the store after the kill.
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

// DigestState deterministically digests a key→value state map — the
// shared currency between a run's shadow survivor state and its
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

// checkRecovery runs the crash-recovery oracle at every oracle worker
// count and batch size: each run is killed mid-commit at a seeded
// point, recovered, and the recovered state must equal the survivor
// state of exactly the acknowledged batches — no committed write lost,
// no aborted write surviving.
func checkRecovery(s *suite) ([]OracleResult, error) {
	var results []OracleResult
	for _, w := range oracleWorkers {
		for _, b := range oracleBatches {
			// The kill lands in the run's second half, and the verdict
			// requires at least one committed batch before it and one
			// killed after: a run shorter than four batches cannot place
			// that, so small request counts are floored per batch size
			// rather than silently producing a vacuous scenario.
			sc := RecoveryScenario{Seed: s.cfg.Seed, Workers: w, Batch: b, Requests: max(s.cfg.Requests, 4*b)}
			run, err := runRecovery(sc)
			if err != nil {
				return results, fmt.Errorf("campaign: recovery w=%d b=%d: %w", w, b, err)
			}
			results = append(results, judgeRecovery(sc, run))
		}
	}
	return results, nil
}

// judgeRecovery renders one run's verdict: digest equality, then the
// guards that make a pass mean something — the kill fired, after a
// committed batch, and tore the log's tail.
func judgeRecovery(sc RecoveryScenario, run RecoveryRun) OracleResult {
	res := OracleResult{
		Oracle:   "recovery",
		Scenario: fmt.Sprintf("kv-crash(w=%d,b=%d)", sc.Workers, sc.Batch),
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
	case !run.TornTail:
		res.Pass = false
		res.Detail = "kill left no torn tail; scenario checks nothing"
	}
	return res
}
