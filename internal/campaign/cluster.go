package campaign

import (
	"fmt"
)

// This file defines the cluster differential oracle: a cluster of N
// sharded nodes behind the consistent-hash router must be
// observationally equal to one Pool given the same seeded schedule —
// same per-request outcomes, same survivor state digest — serially and
// batched, and across membership faults (node crash, rolling restart,
// partition). This file defines the scenario seeding, the
// outcome/digest currency, and the verdict; clusterharness.go runs it
// on real routers and pools.
//
// Soundness of the comparison rests on three properties the cluster
// tier maintains (argued in DESIGN.md §14): (1) every request executes
// on exactly one primary in pristine per-request worker domains, so a
// request's outcome is a function of the request alone; (2) membership
// events are atomic plan steps between requests — failure detection
// advances deterministically on the arrival-counted membership clock
// and handoff completes before the next dispatch; (3) an unavailable
// nack is a promise the request executed nowhere, so the single-pool
// side may mirror it by skipping that index (shadow-skip) without
// changing any other request's outcome.

// ClusterEventKind names a membership fault injected between requests.
type ClusterEventKind string

// Membership event kinds.
const (
	// ClusterEventKill crash-kills a node (no drain, no goodbye); the
	// survivors' lease-based detection fires and slots fail over.
	ClusterEventKill ClusterEventKind = "kill"
	// ClusterEventRestart rejoins a previously killed or retired node id
	// as a fresh empty process; placement hands its slots back and the
	// handoff syncs refill it.
	ClusterEventRestart ClusterEventKind = "restart"
	// ClusterEventRetire gracefully drains a node, handing its slots off
	// while it is alive (the rolling-restart step; lossless at any
	// replica count).
	ClusterEventRetire ClusterEventKind = "retire"
	// ClusterEventPartition makes a node unreachable without killing it:
	// requests owned by it nack unavailable, replica writes skip it.
	ClusterEventPartition ClusterEventKind = "partition"
	// ClusterEventHeal reconnects a partitioned node and resyncs it.
	ClusterEventHeal ClusterEventKind = "heal"
)

// ClusterEvent is one membership fault, fired immediately before the
// request at index At (batched runs snap it to that request's wave
// boundary).
type ClusterEvent struct {
	// At is the request index the event precedes.
	At int
	// Kind is the fault.
	Kind ClusterEventKind
	// Node is the target node id.
	Node int
}

// ClusterScenario seeds one differential run: the same deterministic
// workload is played into a cluster of Nodes nodes and into one Pool,
// with Events injected cluster-side between requests.
type ClusterScenario struct {
	// Name labels the scenario family ("steady", "crash", ...).
	Name string
	// Seed derives the workload and every seeded choice.
	Seed uint64
	// Nodes is the cluster's node count; Replicas the extra copies per
	// slot.
	Nodes    int
	Replicas int
	// Requests is the schedule length.
	Requests int
	// Batch is the wave size; 0 means serial dispatch.
	Batch int
	// AttackEvery marks every Nth request malicious (0 = benign run).
	AttackEvery int
	// ReadReplicas routes cluster-side GETs across slot holders.
	ReadReplicas bool
	// Events is the membership fault plan, ascending by At.
	Events []ClusterEvent
}

// ClusterOutcome is one request's observable result, the per-index
// comparison currency: what happened, whether the operation reported
// success, and a hash of the returned value.
type ClusterOutcome struct {
	// I is the request's schedule index.
	I int `json:"i"`
	// Outcome is an Outcome* constant.
	Outcome string `json:"o"`
	// OK is the operation's success bit (hit/stored/deleted).
	OK bool `json:"ok"`
	// ValueHash digests the returned value (0 when none).
	ValueHash uint64 `json:"v,omitempty"`
}

// ClusterRun is what one cluster differential run observed: both sides'
// per-request outcomes, both survivor digests, and the fault
// bookkeeping the verdict's vacuousness guards need.
type ClusterRun struct {
	// Cluster and Single hold per-request outcomes, schedule order.
	Cluster []ClusterOutcome
	Single  []ClusterOutcome
	// ClusterDigest is DigestState of the union of slot-primary states;
	// SingleDigest is DigestState of the pool's state.
	ClusterDigest string
	SingleDigest  string
	// Handoffs counts slot-primary moves; EventsApplied counts plan
	// events that fired; Unavailable counts cluster-side nacks.
	Handoffs      uint64
	EventsApplied int
	Unavailable   int
}

// clusterScenarios builds the scenario families for one node count:
// steady state, node crash (with rejoin), rolling restart across the
// whole fleet, a network partition window, and read-replica routing.
// Fault families need a second node to be non-vacuous, so n=1 runs
// steady only — which is itself the heart of the oracle: a one-node
// cluster IS a pool behind a router.
func clusterScenarios(seed uint64, n, requests, batch int) []ClusterScenario {
	base := ClusterScenario{
		Seed:        seed,
		Nodes:       n,
		Requests:    requests,
		Batch:       batch,
		AttackEvery: 7,
	}
	steady := base
	steady.Name = "steady"
	if n > 1 {
		steady.Replicas = 1
	}
	out := []ClusterScenario{steady}
	if n < 2 {
		return out
	}

	crash := base
	crash.Name = "crash"
	crash.Replicas = 1
	if n > 2 {
		crash.Replicas = 2
	}
	crash.Events = []ClusterEvent{
		{At: requests / 2, Kind: ClusterEventKill, Node: 1},
		{At: requests * 3 / 4, Kind: ClusterEventRestart, Node: 1},
	}
	out = append(out, crash)

	rolling := base
	rolling.Name = "rolling"
	// Replicas 0: the retire handoff itself must carry every byte.
	for i := 0; i < n; i++ {
		at := requests * (2*i + 1) / (2 * n)
		back := requests * (2*i + 2) / (2 * n)
		if back >= requests {
			back = requests - 1
		}
		rolling.Events = append(rolling.Events,
			ClusterEvent{At: at, Kind: ClusterEventRetire, Node: i},
			ClusterEvent{At: back, Kind: ClusterEventRestart, Node: i},
		)
	}
	out = append(out, rolling)

	part := base
	part.Name = "partition"
	part.Replicas = 1
	part.Events = []ClusterEvent{
		{At: requests / 3, Kind: ClusterEventPartition, Node: 0},
		{At: requests * 2 / 3, Kind: ClusterEventHeal, Node: 0},
	}
	out = append(out, part)

	rr := base
	rr.Name = "read-replica"
	rr.Replicas = 1
	if n > 2 {
		rr.Replicas = 2
	}
	rr.ReadReplicas = true
	out = append(out, rr)
	return out
}

// CheckCluster runs the cluster differential oracle across node counts
// and dispatch modes: for every combination the same seeded schedule
// plays into a cluster and into one Pool, and the two must agree on
// every request's outcome and on the survivor state digest. Defaults:
// nodes 1/2/4; dispatch serial plus batched 8/32. Fault scenarios
// carry vacuousness guards — a crash that triggered no handoff, a
// partition that nacked nothing, or a plan event that never fired
// fails the oracle rather than passing silently.
func CheckCluster(seed uint64, requests int, nodeCounts, batchSizes []int) ([]OracleResult, error) {
	if len(nodeCounts) == 0 {
		nodeCounts = []int{1, 2, 4}
	}
	if len(batchSizes) == 0 {
		batchSizes = []int{0, 8, 32}
	}
	if requests <= 0 {
		requests = 120
	}
	var results []OracleResult
	for _, n := range nodeCounts {
		for _, b := range batchSizes {
			// Floors: a batched run needs several waves, and a fault plan
			// needs room for every event window, or the scenario checks
			// nothing.
			req := requests
			if minReq := 4 * b; req < minReq {
				req = minReq
			}
			if minReq := 24 * n; req < minReq {
				req = minReq
			}
			for _, sc := range clusterScenarios(seed, n, req, b) {
				run, err := runCluster(sc)
				if err != nil {
					return results, fmt.Errorf("campaign: cluster %s n=%d b=%d: %w", sc.Name, n, b, err)
				}
				results = append(results, judgeClusterRun(sc, run))
			}
		}
	}
	return results, nil
}

// judgeClusterRun renders one run's verdict: structural equality of
// the outcome streams, digest equality, and the scenario family's
// vacuousness guards.
func judgeClusterRun(sc ClusterScenario, run ClusterRun) OracleResult {
	res := OracleResult{
		Oracle:   "cluster",
		Scenario: fmt.Sprintf("kv-cluster-%s(n=%d,r=%d,b=%d)", sc.Name, sc.Nodes, sc.Replicas, sc.Batch),
		Pass:     true,
	}
	fail := func(format string, args ...any) OracleResult {
		res.Pass = false
		res.Detail = fmt.Sprintf(format, args...)
		return res
	}
	if len(run.Cluster) != sc.Requests || len(run.Single) != sc.Requests {
		return fail("outcome streams truncated: cluster %d, single %d, want %d",
			len(run.Cluster), len(run.Single), sc.Requests)
	}
	for i := range run.Cluster {
		c, s := run.Cluster[i], run.Single[i]
		if c.Outcome != s.Outcome || c.OK != s.OK || c.ValueHash != s.ValueHash {
			return fail("request %d diverged: cluster %s(ok=%v,v=%x) vs single %s(ok=%v,v=%x)",
				i, c.Outcome, c.OK, c.ValueHash, s.Outcome, s.OK, s.ValueHash)
		}
	}
	if run.ClusterDigest != run.SingleDigest {
		return fail("survivor digests diverged: cluster %s != single %s", run.ClusterDigest, run.SingleDigest)
	}
	if run.EventsApplied != len(sc.Events) {
		return fail("fault plan incomplete: %d of %d events fired", run.EventsApplied, len(sc.Events))
	}
	switch sc.Name {
	case "crash", "rolling":
		if sc.Nodes > 1 && run.Handoffs == 0 {
			return fail("%s scenario triggered no handoff; scenario checks nothing", sc.Name)
		}
	case "partition":
		if sc.Nodes > 1 && run.Unavailable == 0 {
			return fail("partition window nacked nothing; scenario checks nothing")
		}
	case "steady":
		if run.Unavailable != 0 {
			return fail("steady state produced %d unavailable nacks", run.Unavailable)
		}
	}
	return res
}
