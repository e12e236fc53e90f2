package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/persist"
	"repro/internal/workload"
)

// This file runs the two kv-store oracles on real servers. runRecovery
// drives a durable kvstore server in batches, kills it mid-group-commit
// and recovers it in a fresh server; runCluster plays one schedule into
// a cluster of routers and into one Pool. Both drive workload.Requests
// through kvstore calls, not DomainCtx calls through an Executor, so
// neither goes through the wave loop; they share the schedule, the
// server config and the cache capacity below.
//
// The cluster's single-pool side mirrors cluster-side unavailable nacks
// by skipping those indices (shadow-skip): an unavailable nack is the
// router's promise the request executed nowhere, so skipping it is the
// only execution the single side can perform that preserves equality —
// and the oracle still checks the nack carried no success bit and no
// value.

// kvCapacity is sized so no kv-oracle cache ever evicts: survivor state
// is then exactly the acknowledged mutation history on every side (the
// documented LRU caveat in kvstore/persist.go never kicks in).
const kvCapacity = 64 << 20

// kvServer is the SDRaD server config of every kv-oracle node, pool
// and durable server (the recovery oracle sets its own worker count
// and store).
var kvServer = kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}

// kvSchedule pre-generates the kv oracles' seeded schedule of n
// requests, so every side of a differential replays the identical
// slice. It is write-heavy — commits to tear, replication and handoff
// under load — and every 7th request is malicious, so rewound requests
// interleave with killed commits and membership faults.
func kvSchedule(seed uint64, n int) ([]workload.Request, error) {
	kv, err := workload.NewKV(workload.KVConfig{
		Seed:        seed,
		Keys:        256,
		ValueSize:   96,
		GetFraction: 0.4,
	})
	if err != nil {
		return nil, err
	}
	gen := &workload.MaliciousEvery{G: kv, N: 7}
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = gen.Next()
	}
	return reqs, nil
}

// newRecoveryServer opens a durable kv server over dir; a second call
// on the same dir recovers what the first committed.
func newRecoveryServer(dir string, workers int) (*kvstore.Server, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, kvCapacity)
	if err != nil {
		return nil, err
	}
	cfg := kvServer
	cfg.Workers = workers
	cfg.Persist = &kvstore.PersistConfig{Dir: dir, Fsync: true, SnapshotEvery: 4}
	return kvstore.NewServer(sys, cache, cfg)
}

// runRecovery executes one crash-recovery scenario end to end in a
// temporary directory it removes: phase one drives the schedule in
// batches and kills the store mid-group-commit at a seed-derived point,
// keeping a host-side shadow of every acknowledged mutation; phase two
// recovers in a fresh server from the same directory and dumps it.
func runRecovery(sc RecoveryScenario) (run RecoveryRun, err error) {
	dir, err := os.MkdirTemp("", "sdrad-recovery-")
	if err != nil {
		return run, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	reqs, err := kvSchedule(sc.Seed, sc.Requests)
	if err != nil {
		return run, err
	}
	run.TotalBatches = (sc.Requests + sc.Batch - 1) / sc.Batch

	srv, err := newRecoveryServer(dir, sc.Workers)
	if err != nil {
		return run, fmt.Errorf("campaign: recovery phase 1: %w", err)
	}
	fs, ok := srv.Store().(*persist.FileStore)
	if !ok {
		return run, fmt.Errorf("campaign: recovery needs a FileStore, got %T", srv.Store())
	}

	// Seed-derived kill point: a batch in the second half of the run,
	// torn at a fraction deep enough to leave header bytes behind.
	rng := workload.NewRNG(sc.Seed ^ 0x7265636f76657279) // "recovery"
	killBatch := min(run.TotalBatches/2+int(rng.Uint64()%uint64((run.TotalBatches+1)/2)), run.TotalBatches-1)
	killFrac := 0.1 + 0.8*float64(rng.Uint64()%1000)/1000

	shadow := make(map[string][]byte)
	for b := 0; b < run.TotalBatches; b++ {
		lo := b * sc.Batch
		batch := make([]kvstore.BatchRequest, min(sc.Batch, sc.Requests-lo))
		for i := range batch {
			batch[i] = kvstore.BatchRequest{ClientID: lo + i, Req: reqs[lo+i]}
		}
		if b == killBatch {
			fs.KillNextAppend(killFrac)
		}
		out := srv.HandleBatch(batch)
		// A torn group commit withdraws the batch's mutation acks; any
		// such response marks the whole batch uncommitted.
		killed := false
		for _, resp := range out {
			if errors.Is(resp.Err, persist.ErrKilled) || errors.Is(resp.Err, persist.ErrClosed) {
				killed = true
			}
		}
		if killed {
			break
		}
		run.AckedBatches++
		for i, resp := range out {
			if !resp.OK || resp.Err != nil || resp.Contained {
				continue
			}
			switch batch[i].Req.Op {
			case workload.OpSet:
				shadow[batch[i].Req.Key] = append([]byte(nil), batch[i].Req.Value...)
			case workload.OpDelete:
				delete(shadow, batch[i].Req.Key)
			}
		}
	}
	// The doomed process "crashes": its dead store closes without flush.
	if cerr := srv.Close(); cerr != nil && !errors.Is(cerr, persist.ErrClosed) {
		return run, fmt.Errorf("campaign: recovery phase 1 close: %w", cerr)
	}

	// Phase 2: a fresh server recovers from the same directory.
	srv2, err := newRecoveryServer(dir, sc.Workers)
	if err != nil {
		return run, fmt.Errorf("campaign: recovery phase 2: %w", err)
	}
	recovered, err := srv2.Cache().Dump()
	if err != nil {
		return run, fmt.Errorf("campaign: recovery dump: %w", err)
	}
	fs2, ok := srv2.Store().(*persist.FileStore)
	if !ok {
		return run, fmt.Errorf("campaign: recovery phase 2 store is %T", srv2.Store())
	}
	run.TornTail = fs2.Info().TornBytes > 0
	if err := srv2.Close(); err != nil {
		return run, fmt.Errorf("campaign: recovery phase 2 close: %w", err)
	}
	run.CommittedDigest = DigestState(shadow)
	run.RecoveredDigest = DigestState(recovered)
	return run, nil
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

// playCluster drives the schedule through one side of the differential,
// one request at a time through handle. before (cluster side) fires
// ahead of each request; indices in skip (single side) are recorded
// unavailable and never executed.
func playCluster(reqs []workload.Request,
	handle func(context.Context, int, workload.Request) kvstore.Response,
	before func(i int) error, skip map[int]bool) ([]ClusterOutcome, error) {
	ctx := context.Background()
	out := make([]ClusterOutcome, len(reqs))
	for i, req := range reqs {
		if before != nil {
			if err := before(i); err != nil {
				return nil, err
			}
		}
		if skip[i] {
			out[i] = ClusterOutcome{I: i, Outcome: OutcomeUnavailable}
			continue
		}
		out[i] = classifyCluster(i, handle(ctx, i, req))
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
	reqs, err := kvSchedule(sc.Seed, sc.Requests)
	if err != nil {
		return run, err
	}

	// Cluster side.
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Nodes:        sc.Nodes,
		Replicas:     sc.Replicas,
		Sys:          core.DefaultConfig(),
		Server:       kvServer,
		Capacity:     kvCapacity,
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
	if run.Cluster, err = playCluster(reqs, router.HandleContext, fire, nil); err != nil {
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
	pool, err := kvstore.NewPool(core.DefaultConfig(), kvServer, sc.Nodes, kvCapacity)
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: build pool: %w", sc.Name, err)
	}
	defer func() {
		_ = pool.Close() //lint:errclass harness teardown after the run's state is captured
	}()
	if run.Single, err = playCluster(reqs, pool.HandleContext, nil, skip); err != nil {
		return run, err
	}
	singleState, err := pool.DumpAll()
	if err != nil {
		return run, fmt.Errorf("campaign: cluster scenario %q: single dump: %w", sc.Name, err)
	}
	run.SingleDigest = DigestState(singleState)
	return run, nil
}
