package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// This file runs the cluster differential oracle over real cluster
// routers and kvstore pools: the same pre-generated seeded schedule
// plays into a cluster of N nodes (with the scenario's membership fault
// plan fired between requests, or between waves when batched) and into
// one Pool, and both sides' per-request outcomes and survivor dumps are
// returned for the oracle's verdict.
//
// The single-pool side mirrors cluster-side unavailable nacks by
// skipping those indices (shadow-skip): an unavailable nack is the
// router's promise the request executed nowhere, so skipping it is the
// only execution the single side can perform that preserves equality —
// and the oracle still checks the nack carried no success bit and no
// value.

// harnessCapacity is sized so scenarios never evict: the survivor
// state is then exactly the acked mutation history on both sides.
const harnessCapacity = 64 << 20

// clusterServer is the per-node (and single-pool) server config.
var clusterServer = kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}

// clusterSchedule pre-generates the scenario's full request list once
// — both sides replay the identical slice.
func clusterSchedule(sc ClusterScenario) ([]workload.Request, error) {
	kv, err := workload.NewKV(workload.KVConfig{
		Seed:        sc.Seed,
		Keys:        256,
		ValueSize:   96,
		GetFraction: 0.4, // write-heavy: replication and handoff under load
	})
	if err != nil {
		return nil, err
	}
	var gen interface{ Next() workload.Request } = kv
	if sc.AttackEvery > 0 {
		gen = &workload.MaliciousEvery{G: kv, N: sc.AttackEvery}
	}
	reqs := make([]workload.Request, sc.Requests)
	for i := range reqs {
		reqs[i] = gen.Next()
	}
	return reqs, nil
}

// applyEvent fires one membership fault on the router.
func applyEvent(r *cluster.Router, ev ClusterEvent) error {
	id := cluster.NodeID(ev.Node)
	switch ev.Kind {
	case ClusterEventKill:
		return r.FailNode(id)
	case ClusterEventRestart:
		return r.JoinNode(id)
	case ClusterEventRetire:
		return r.RetireNode(id)
	case ClusterEventPartition:
		return r.PartitionNode(id)
	case ClusterEventHeal:
		return r.HealNode(id)
	default:
		return fmt.Errorf("campaign: unknown cluster event kind %q", ev.Kind)
	}
}

// classifyCluster maps one response to the oracle's outcome currency.
func classifyCluster(i int, resp kvstore.Response) ClusterOutcome {
	o := ClusterOutcome{I: i, OK: resp.OK}
	switch {
	case resp.Err != nil:
		if _, ok := cluster.IsUnavailable(resp.Err); ok {
			o.Outcome = OutcomeUnavailable
		} else {
			o.Outcome = OutcomeError
		}
	case resp.Contained:
		o.Outcome = OutcomeDetected
	default:
		o.Outcome = OutcomeOK
		o.ValueHash = hashBytes(resp.Value)
	}
	return o
}

// hashBytes digests a returned value (FNV-1a; 0 for no value).
func hashBytes(b []byte) uint64 {
	if len(b) == 0 {
		return 0
	}
	d := newDigest()
	d.bytes(b)
	return d.h
}

// playCluster drives the schedule through one side of the differential:
// one request at a time through one when batch <= 0, otherwise waves of
// batch through many, so both dispatch paths stay covered. before
// (cluster side) fires ahead of each request or wave; indices in skip
// (single side) are recorded unavailable and never executed.
func playCluster(reqs []workload.Request, batch int,
	one func(context.Context, int, workload.Request) kvstore.Response,
	many func([]kvstore.BatchRequest) []kvstore.Response,
	before func(i int) error, skip map[int]bool) ([]ClusterOutcome, error) {
	ctx := context.Background()
	out := make([]ClusterOutcome, len(reqs))
	wave := max(batch, 1)
	for ws := 0; ws < len(reqs); ws += wave {
		if before != nil {
			if err := before(ws); err != nil {
				return nil, err
			}
		}
		var calls []kvstore.BatchRequest
		for i := ws; i < min(ws+wave, len(reqs)); i++ {
			if skip[i] {
				out[i] = ClusterOutcome{I: i, Outcome: OutcomeUnavailable}
				continue
			}
			calls = append(calls, kvstore.BatchRequest{Ctx: ctx, ClientID: i, Req: reqs[i]})
		}
		if batch <= 0 {
			for _, c := range calls {
				out[c.ClientID] = classifyCluster(c.ClientID, one(ctx, c.ClientID, c.Req))
			}
			continue
		}
		for k, resp := range many(calls) {
			out[calls[k].ClientID] = classifyCluster(calls[k].ClientID, resp)
		}
	}
	return out, nil
}

// runCluster executes one cluster differential scenario end to end:
// build both sides, play the schedule with the fault plan, digest and
// classify both sides.
func runCluster(sc ClusterScenario) (ClusterRun, error) {
	var run ClusterRun
	if sc.Requests <= 0 || sc.Nodes <= 0 {
		return run, fmt.Errorf("campaign: cluster scenario %q: empty schedule or fleet", sc.Name)
	}
	reqs, err := clusterSchedule(sc)
	if err != nil {
		return run, err
	}

	// Cluster side.
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:        sc.Nodes,
		Replicas:     sc.Replicas,
		Sys:          core.DefaultConfig(),
		Server:       clusterServer,
		Capacity:     harnessCapacity,
		ReadReplicas: sc.ReadReplicas,
	})
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: build router: %w", sc.Name, err)
	}
	defer func() {
		_ = router.Close() //lint:errclass harness teardown after the run's state is captured
	}()
	evIdx := 0
	fire := func(upTo int) error {
		for evIdx < len(sc.Events) && sc.Events[evIdx].At <= upTo {
			if err := applyEvent(router, sc.Events[evIdx]); err != nil {
				return fmt.Errorf("campaign: cluster scenario %q: event %d (%s node %d): %w",
					sc.Name, evIdx, sc.Events[evIdx].Kind, sc.Events[evIdx].Node, err)
			}
			run.EventsApplied++
			evIdx++
		}
		return nil
	}
	if run.Cluster, err = playCluster(reqs, sc.Batch, router.HandleContext, router.HandleBatch, fire, nil); err != nil {
		return run, err
	}
	// Any plan events past the last request fire before the final dump.
	if err := fire(sc.Requests); err != nil {
		return run, err
	}
	clusterState, err := router.Dump()
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: cluster dump: %w", sc.Name, err)
	}
	run.ClusterDigest = DigestState(clusterState)
	run.Handoffs = router.Handoffs()
	skip := make(map[int]bool)
	for _, o := range run.Cluster {
		if o.Outcome == OutcomeUnavailable {
			skip[o.I] = true
			run.Unavailable++
		}
	}

	// Single-pool side: the same schedule into one pool, shadow-skipping
	// the indices the cluster promised it never executed.
	pool, err := kvstore.NewPool(core.DefaultConfig(), clusterServer, sc.Nodes, harnessCapacity)
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: build pool: %w", sc.Name, err)
	}
	defer func() {
		_ = pool.Close() //lint:errclass harness teardown after the run's state is captured
	}()
	if run.Single, err = playCluster(reqs, sc.Batch, pool.HandleContext, pool.HandleBatchMixed, nil, skip); err != nil {
		return run, err
	}
	singleState, err := pool.DumpAll()
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: single dump: %w", sc.Name, err)
	}
	run.SingleDigest = DigestState(singleState)
	return run, nil
}
