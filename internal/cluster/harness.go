package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// Harness implements campaign.ClusterRunner over real routers and
// pools: the same pre-generated seeded schedule plays into a cluster
// of N nodes (with the scenario's membership fault plan fired between
// requests, or between waves when batched) and into one Pool, and both
// sides' per-request outcomes and survivor dumps are returned for the
// oracle's verdict.
//
// The single-pool side mirrors cluster-side unavailable nacks by
// skipping those indices (shadow-skip): an unavailable nack is the
// router's promise the request executed nowhere, so skipping it is the
// only execution the single side can perform that preserves equality —
// and the oracle still checks the nack carried no success bit and no
// value.
type Harness struct {
	// Workers is each server's worker-domain count (0 = 2).
	Workers int
	// Keys and ValueSize shape the seeded workload (0 = 256 / 96).
	Keys      int
	ValueSize int
}

// harnessCapacity is sized so scenarios never evict: the survivor
// state is then exactly the acked mutation history on both sides.
const harnessCapacity = 64 << 20

// serverConfig builds the per-node (and single-pool) server config.
func (h *Harness) serverConfig() kvstore.ServerConfig {
	workers := h.Workers
	if workers <= 0 {
		workers = 2
	}
	return kvstore.ServerConfig{
		Mode:         kvstore.ModeSDRaD,
		Workers:      workers,
		InterArrival: time.Nanosecond,
	}
}

// schedule pre-generates the scenario's full request list once — both
// sides replay the identical slice.
func (h *Harness) schedule(sc campaign.ClusterScenario) ([]workload.Request, error) {
	keys := h.Keys
	if keys <= 0 {
		keys = 256
	}
	valueSize := h.ValueSize
	if valueSize <= 0 {
		valueSize = 96
	}
	kv, err := workload.NewKV(workload.KVConfig{
		Seed:        sc.Seed,
		Keys:        keys,
		ValueSize:   valueSize,
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
func applyEvent(r *Router, ev campaign.ClusterEvent) error {
	id := NodeID(ev.Node)
	switch ev.Kind {
	case campaign.ClusterEventKill:
		return r.FailNode(id)
	case campaign.ClusterEventRestart:
		return r.JoinNode(id)
	case campaign.ClusterEventRetire:
		return r.RetireNode(id)
	case campaign.ClusterEventPartition:
		return r.PartitionNode(id)
	case campaign.ClusterEventHeal:
		return r.HealNode(id)
	default:
		return fmt.Errorf("cluster: unknown event kind %q", ev.Kind)
	}
}

// classify maps one response to the oracle's outcome currency.
func classify(i int, resp kvstore.Response) campaign.ClusterOutcome {
	o := campaign.ClusterOutcome{I: i, OK: resp.OK}
	switch {
	case resp.Err != nil:
		if _, ok := IsUnavailable(resp.Err); ok {
			o.Outcome = campaign.OutcomeUnavailable
		} else {
			o.Outcome = campaign.OutcomeError
		}
	case resp.Contained:
		o.Outcome = campaign.OutcomeDetected
	default:
		o.Outcome = campaign.OutcomeOK
		o.ValueHash = hashBytes(resp.Value)
	}
	return o
}

// hashBytes digests a returned value (FNV-1a; 0 for no value).
func hashBytes(b []byte) uint64 {
	if len(b) == 0 {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// play drives the schedule through one side of the differential: one
// request at a time through one when batch <= 0, otherwise waves of
// batch through many, so both dispatch paths stay covered. before
// (cluster side) fires ahead of each request or wave; indices in skip
// (single side) are recorded unavailable and never executed.
func play(reqs []workload.Request, batch int,
	one func(context.Context, int, workload.Request) kvstore.Response,
	many func([]kvstore.BatchRequest) []kvstore.Response,
	before func(i int) error, skip map[int]bool) ([]campaign.ClusterOutcome, error) {
	ctx := context.Background()
	out := make([]campaign.ClusterOutcome, len(reqs))
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
				out[i] = campaign.ClusterOutcome{I: i, Outcome: campaign.OutcomeUnavailable}
				continue
			}
			calls = append(calls, kvstore.BatchRequest{Ctx: ctx, ClientID: i, Req: reqs[i]})
		}
		if batch <= 0 {
			for _, c := range calls {
				out[c.ClientID] = classify(c.ClientID, one(ctx, c.ClientID, c.Req))
			}
			continue
		}
		for k, resp := range many(calls) {
			out[calls[k].ClientID] = classify(calls[k].ClientID, resp)
		}
	}
	return out, nil
}

// RunCluster implements campaign.ClusterRunner.
func (h *Harness) RunCluster(sc campaign.ClusterScenario) (campaign.ClusterRun, error) {
	var run campaign.ClusterRun
	if sc.Requests <= 0 || sc.Nodes <= 0 {
		return run, fmt.Errorf("cluster: scenario %q: empty schedule or fleet", sc.Name)
	}
	reqs, err := h.schedule(sc)
	if err != nil {
		return run, err
	}

	// Cluster side.
	router, err := NewRouter(RouterConfig{
		Nodes:        sc.Nodes,
		Replicas:     sc.Replicas,
		Sys:          core.DefaultConfig(),
		Server:       h.serverConfig(),
		Capacity:     harnessCapacity,
		ReadReplicas: sc.ReadReplicas,
	})
	if err != nil {
		return run, fmt.Errorf("cluster: scenario %q: build router: %w", sc.Name, err)
	}
	defer func() {
		_ = router.Close() //lint:errclass harness teardown after the run's state is captured
	}()
	evIdx := 0
	fire := func(upTo int) error {
		for evIdx < len(sc.Events) && sc.Events[evIdx].At <= upTo {
			if err := applyEvent(router, sc.Events[evIdx]); err != nil {
				return fmt.Errorf("cluster: scenario %q: event %d (%s node %d): %w",
					sc.Name, evIdx, sc.Events[evIdx].Kind, sc.Events[evIdx].Node, err)
			}
			run.EventsApplied++
			evIdx++
		}
		return nil
	}
	if run.Cluster, err = play(reqs, sc.Batch, router.HandleContext, router.HandleBatch, fire, nil); err != nil {
		return run, err
	}
	// Any plan events past the last request fire before the final dump.
	if err := fire(sc.Requests); err != nil {
		return run, err
	}
	clusterState, err := router.Dump()
	if err != nil {
		return run, fmt.Errorf("cluster: scenario %q: cluster dump: %w", sc.Name, err)
	}
	run.ClusterDigest = campaign.DigestState(clusterState)
	run.Handoffs = router.Handoffs()
	skip := make(map[int]bool)
	for _, o := range run.Cluster {
		if o.Outcome == campaign.OutcomeUnavailable {
			skip[o.I] = true
			run.Unavailable++
		}
	}

	// Single-pool side: the same schedule into one pool, shadow-skipping
	// the indices the cluster promised it never executed.
	pool, err := kvstore.NewPool(core.DefaultConfig(), h.serverConfig(), sc.Nodes, harnessCapacity)
	if err != nil {
		return run, fmt.Errorf("cluster: scenario %q: build pool: %w", sc.Name, err)
	}
	defer func() {
		_ = pool.Close() //lint:errclass harness teardown after the run's state is captured
	}()
	if run.Single, err = play(reqs, sc.Batch, pool.HandleContext, pool.HandleBatchMixed, nil, skip); err != nil {
		return run, err
	}
	singleState, err := pool.DumpAll()
	if err != nil {
		return run, fmt.Errorf("cluster: scenario %q: single dump: %w", sc.Name, err)
	}
	run.SingleDigest = campaign.DigestState(singleState)
	return run, nil
}

// Interface compliance: the harness implements the campaign's cluster
// differential contract.
var _ campaign.ClusterRunner = (*Harness)(nil)
