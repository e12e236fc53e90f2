package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
	"repro/internal/workload"
)

// RouterConfig configures a cluster router and the node fleet it owns.
type RouterConfig struct {
	// Nodes is the initial node count (<= 0 means 1). Node ids are
	// 0..Nodes-1 and stay stable across crash/rejoin.
	Nodes int
	// Replicas is the number of extra copies each slot keeps beyond its
	// primary (clamped to Nodes-1). With Replicas >= 1, node-crash
	// handoff is lossless: a synchronously written replica is promoted.
	Replicas int
	// LeaseCycles is the membership lease duration in arrival-counted
	// cycles (0 means DefaultLeaseCycles).
	LeaseCycles uint64
	// Sys configures each node's simulated machines.
	Sys core.Config
	// Server configures each node's kvstore servers.
	Server kvstore.ServerConfig
	// ShardsPerNode is each node's local shard count (<= 0 means 1).
	ShardsPerNode int
	// Capacity is each node's cache capacity in bytes (0 means the node
	// default, 64 MiB).
	Capacity uint64
	// ReadReplicas routes single-request GETs across a slot's holders
	// round-robin instead of pinning them to the primary. Sound because
	// replica writes are synchronous: an acked mutation is on every
	// reachable holder before the ack returns.
	ReadReplicas bool
}

// Router is the cluster tier's front door: it owns a fleet of Nodes and
// a lease Registry, places keys on nodes by rendezvous hashing over
// NumSlots virtual slots, replicates acked mutations synchronously to
// each slot's replica holders, and re-routes (with state handoff) when
// membership changes.
//
// Concurrency contract: dispatch (route + primary execution + replica
// application) runs under a read lock; membership events (FailNode,
// JoinNode, PartitionNode, HealNode, RetireNode) take the write lock.
// A request therefore never interleaves with a membership change — an
// acked request is fully replicated under the placement it was routed
// with, and a nacked request was never executed anywhere. The churn
// hammer test asserts exactly this invariant. Within the read lock, a
// mutation holds its slot's lock (slotMu) from the primary apply
// through its replication, so two mutations of one slot reach every
// holder in the order the primary applied them. GETs take no slot
// lock. The replica write-order regression asserts this.
//
// Router implements lifecycle.Component (the conformance battery runs
// against it).
type Router struct {
	lc  *lifecycle.Machine
	cfg RouterConfig

	// slotMu[s] orders slot s's mutations (see the concurrency
	// contract).
	slotMu [NumSlots]sync.Mutex

	mu    sync.RWMutex
	reg   *Registry
	nodes map[NodeID]*Node
	// ids is nodes' keys, ascending: the deterministic iteration order of
	// the fleet. It is rebuilt under the write lock whenever nodes
	// changes and only read under the read lock, so a request never
	// sorts.
	ids         []NodeID
	partitioned map[NodeID]bool
	leaving     map[NodeID]bool
	// assign maps each slot to its holders, primary first, recomputed on
	// every membership change.
	assign [NumSlots][]NodeID

	handoffs    atomic.Uint64
	dispatched  atomic.Uint64
	unavailable atomic.Uint64
}

// testHookAfterPrimary, when non-nil, observes each mutation after its
// primary apply and before its replication. It is a test seam: the
// replica write-order regression parks a SET there.
var testHookAfterPrimary func(workload.Request)

// NewRouter builds the registry and the node fleet — each node's pool,
// then its session, in ascending id order — and computes the initial
// placement. The returned router is serving. If a node cannot be
// built, the nodes already built and the registry are closed before the
// error returns.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Replicas > cfg.Nodes-1 {
		cfg.Replicas = cfg.Nodes - 1
	}
	if cfg.LeaseCycles == 0 {
		cfg.LeaseCycles = DefaultLeaseCycles
	}
	if cfg.ShardsPerNode <= 0 {
		cfg.ShardsPerNode = 1
	}
	r := &Router{
		lc:          lifecycle.NewMachine("cluster.Router"),
		cfg:         cfg,
		reg:         NewRegistry(cfg.LeaseCycles),
		nodes:       make(map[NodeID]*Node, cfg.Nodes),
		partitioned: make(map[NodeID]bool),
		leaving:     make(map[NodeID]bool),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n, err := r.newNodeLocked(NodeID(i))
		if err != nil {
			return nil, errors.Join(err, r.Close())
		}
		r.nodes[n.ID()] = n
		r.ids = append(r.ids, n.ID())
	}
	if err := r.rebalanceLocked(); err != nil {
		return nil, errors.Join(err, r.Close())
	}
	return r, nil
}

// newNodeLocked builds a node from the router's config and registers
// its session (caller holds mu).
func (r *Router) newNodeLocked(id NodeID) (*Node, error) {
	return NewNode(NodeConfig{
		ID:       id,
		Sys:      r.cfg.Sys,
		Server:   r.cfg.Server,
		Shards:   r.cfg.ShardsPerNode,
		Capacity: r.cfg.Capacity,
		Registry: r.reg,
	})
}

// Drain stops admission gracefully: every node drains (preserving
// queued work and committing final WAL groups on durable nodes), then
// the registry drains. Idempotent.
func (r *Router) Drain() error {
	return r.lc.Drain(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		for _, id := range r.ids {
			if err := r.nodes[id].Drain(); err != nil {
				return err
			}
		}
		return r.reg.Drain()
	})
}

// Close tears the cluster down: every node, then the registry.
// Idempotent.
func (r *Router) Close() error {
	return r.lc.Close(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		var first error
		for _, id := range r.ids {
			if err := r.nodes[id].Close(); err != nil && first == nil {
				first = err
			}
		}
		r.nodes, r.ids = nil, nil
		if err := r.reg.Close(); err != nil && first == nil {
			first = err
		}
		return first
	})
}

// State returns the router's lifecycle state.
func (r *Router) State() lifecycle.State { return r.lc.State() }

// Interface compliance: the router implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*Router)(nil)

// serving returns a typed refusal unless the router is dispatching.
func (r *Router) serving(op string) error {
	s := r.lc.State()
	if s == lifecycle.StateHealthy || s == lifecycle.StateDegraded {
		return nil
	}
	return &lifecycle.LifecycleError{Component: "cluster.Router", Op: op, From: s}
}

// sortedIDs collects m's keys in ascending order — the
// deterministic-iteration idiom for the node and member maps, run once
// per membership change.
func sortedIDs[V any](m map[NodeID]V) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// availableLocked returns the ids eligible to hold slots: members of
// the fleet that are neither partitioned nor leaving, ascending.
func (r *Router) availableLocked() []NodeID {
	var out []NodeID
	for _, id := range r.ids {
		if !r.partitioned[id] && !r.leaving[id] {
			out = append(out, id)
		}
	}
	return out
}

// heartbeatLocked renews the lease of every reachable node (caller
// holds mu or a read lock; the registry has its own mutex). A node that
// fell out of the registry (its session died while it was reachable,
// which only happens across an explicit membership event) re-registers.
func (r *Router) heartbeatLocked() {
	for _, id := range r.ids {
		if r.partitioned[id] {
			continue
		}
		if err := r.nodes[id].Heartbeat(); err != nil {
			if _, ok := IsMembership(err); ok {
				_ = r.reg.Register(id) //lint:errclass reachable node rejoins over its dead session; Register over a dead session cannot fail
			}
		}
	}
}

// tickLocked advances the membership clock by n arrivals, heartbeats
// every reachable node, and pins any session whose lease ran out (a
// partitioned node stops heartbeating, so its lease ages here —
// Healthy, then Degraded, then Dead — exactly as arrivals accumulate).
func (r *Router) tickLocked(n uint64) {
	r.reg.Tick(n)
	r.heartbeatLocked()
	_ = r.reg.Sweep()
}

// routeLocked resolves key to its slot and target holders, returning a
// typed UnavailableError when the slot has no reachable primary.
func (r *Router) routeLocked(key string) (slot int, holders []NodeID, err error) {
	slot = KeySlot(key)
	holders = r.assign[slot]
	if len(holders) == 0 {
		return slot, nil, newUnavailable(slot, -1, "no live holders", 2*r.reg.LeaseCycles())
	}
	primary := holders[0]
	if r.partitioned[primary] {
		return slot, nil, newUnavailable(slot, primary, "partitioned", 2*r.reg.LeaseCycles())
	}
	if _, ok := r.nodes[primary]; !ok {
		return slot, nil, newUnavailable(slot, primary, "crashed", 2*r.reg.LeaseCycles())
	}
	return slot, holders, nil
}

// readTargetLocked picks the node that serves a GET: the primary, or —
// with ReadReplicas — a deterministic rotation over the slot's
// reachable holders (sound because replica writes are synchronous).
func (r *Router) readTargetLocked(holders []NodeID, seq uint64) NodeID {
	if !r.cfg.ReadReplicas || len(holders) < 2 {
		return holders[0]
	}
	reachable := 0
	for _, id := range holders {
		if r.reachableLocked(id) {
			reachable++
		}
	}
	if reachable == 0 {
		return holders[0]
	}
	// The (seq mod reachable)-th reachable holder, found by a second
	// walk rather than a per-GET slice of the reachable ones.
	nth := int(seq % uint64(reachable))
	for _, id := range holders {
		if r.reachableLocked(id) {
			if nth == 0 {
				return id
			}
			nth--
		}
	}
	return holders[0] // not reached: the count above found nth+1 reachable holders
}

// reachableLocked reports whether node id is live and not partitioned.
func (r *Router) reachableLocked(id NodeID) bool {
	_, ok := r.nodes[id]
	return ok && !r.partitioned[id]
}

// replicateLocked applies an acknowledged mutation to the slot's
// replica holders (trusted-side log shipping; see Node.Apply). An
// unreachable replica is skipped — HealNode resyncs it before it can
// serve again. A reachable replica that refuses the apply leaves that
// replica behind the primary; the router degrades itself so the
// inconsistency is visible, and the next rebalance resync repairs it.
func (r *Router) replicateLocked(holders []NodeID, req workload.Request) {
	for _, id := range holders[1:] {
		n, ok := r.nodes[id]
		if !ok || r.partitioned[id] {
			continue
		}
		if err := n.Apply(req); err != nil {
			r.lc.Degrade() //lint:errclass replica apply refusal degrades the router; rebalance resync repairs the replica
		}
	}
}

// HandleContext serves one request: it advances the membership clock by
// one arrival, checks the request against the wire bounds
// (checkRequest), routes the key to its slot's primary (or a read
// replica for GETs when enabled), executes there, and synchronously
// replicates an acknowledged mutation to the slot's remaining holders
// before returning the ack — holding the slot's lock from the primary
// apply through the replication. A request whose slot has no reachable
// primary gets a typed *UnavailableError in Response.Err and was not
// executed anywhere.
func (r *Router) HandleContext(ctx context.Context, clientID int, req workload.Request) kvstore.Response {
	if err := r.serving("HandleContext"); err != nil {
		return kvstore.Response{Err: err}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.tickLocked(1)
	if err := checkRequest(clientID, req); err != nil {
		return kvstore.Response{Err: err}
	}
	slot, holders, err := r.routeLocked(req.Key)
	if err != nil {
		r.unavailable.Add(1)
		return kvstore.Response{Err: err}
	}
	seq := r.dispatched.Add(1)
	if req.Op == workload.OpGet {
		return r.nodes[r.readTargetLocked(holders, seq)].HandleContext(ctx, clientID, req)
	}
	r.slotMu[slot].Lock()
	defer r.slotMu[slot].Unlock()
	resp := r.nodes[holders[0]].HandleContext(ctx, clientID, req)
	if testHookAfterPrimary != nil {
		testHookAfterPrimary(req)
	}
	if resp.OK && resp.Err == nil && !resp.Contained {
		r.replicateLocked(holders, req)
	}
	return resp
}

// FailNode crash-kills a node: its process state vanishes, its lease
// stops renewing, and — after the lease plus grace window of arrivals
// elapses with the survivors still heartbeating — the registry sweeps
// it dead and the router fails its slots over to the surviving holders
// (lossless when Replicas >= 1, because every acked mutation was
// synchronously applied to the promoted replica before its ack).
func (r *Router) FailNode(id NodeID) error {
	if err := r.serving("FailNode"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return &MembershipError{Node: id, Op: "FailNode", Reason: "unknown node"}
	}
	delete(r.nodes, id)
	r.ids = sortedIDs(r.nodes)
	delete(r.partitioned, id)
	_ = n.Close() //lint:errclass crash semantics: the process is gone; release host resources and ignore the refusal
	r.expireLocked()
	return r.rebalanceLocked()
}

// expireLocked advances the membership clock through the crashed
// node's lease and grace windows while every surviving reachable node
// keeps heartbeating, then sweeps — the deterministic model of "the
// fleet kept serving until failure detection fired" (caller holds mu).
func (r *Router) expireLocked() {
	lease := r.reg.LeaseCycles()
	for i := 0; i < 2; i++ {
		r.reg.Tick(lease)
		r.heartbeatLocked()
	}
	r.reg.Tick(1)
	r.heartbeatLocked()
	_ = r.reg.Sweep()
}

// PartitionNode makes a node unreachable without killing it: its lease
// silently ages toward Dead as arrivals accumulate, requests whose
// slots it owns get typed unavailable nacks (never executed), and
// replica writes skip it. HealNode reverses this.
func (r *Router) PartitionNode(id NodeID) error {
	if err := r.serving("PartitionNode"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return &MembershipError{Node: id, Op: "PartitionNode", Reason: "unknown node"}
	}
	if r.partitioned[id] {
		return &MembershipError{Node: id, Op: "PartitionNode", Reason: "already partitioned"}
	}
	r.partitioned[id] = true
	return nil
}

// HealNode reconnects a partitioned node: its session renews (or
// re-registers, if the lease expired during the partition), and the
// node is resynced from its slots' primaries before it can serve
// again — replica writes skipped it while it was unreachable, and a
// mutation stream may have deleted keys it still holds.
func (r *Router) HealNode(id NodeID) error {
	if err := r.serving("HealNode"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; !ok {
		return &MembershipError{Node: id, Op: "HealNode", Reason: "unknown node"}
	}
	if !r.partitioned[id] {
		return &MembershipError{Node: id, Op: "HealNode", Reason: "not partitioned"}
	}
	delete(r.partitioned, id)
	if err := r.reg.Renew(id); err != nil {
		_ = r.reg.Register(id) //lint:errclass the lease expired during the partition; Register over a dead session cannot fail
	}
	if err := r.rebalanceLocked(); err != nil {
		return err
	}
	return r.resyncNodeLocked(id)
}

// RetireNode removes a node gracefully (the rolling-restart step): its
// slots hand off to the surviving holders while it is still alive —
// the data flows out of the retiring node itself, so a graceful retire
// is lossless at any replica count — then it drains and stops.
func (r *Router) RetireNode(id NodeID) error {
	if err := r.serving("RetireNode"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n, ok := r.nodes[id]
	if !ok {
		return &MembershipError{Node: id, Op: "RetireNode", Reason: "unknown node"}
	}
	if r.partitioned[id] {
		return &MembershipError{Node: id, Op: "RetireNode", Reason: "partitioned; heal before retiring"}
	}
	r.leaving[id] = true
	if err := r.rebalanceLocked(); err != nil {
		delete(r.leaving, id)
		return err
	}
	delete(r.leaving, id)
	delete(r.nodes, id)
	r.ids = sortedIDs(r.nodes)
	if err := n.Drain(); err != nil {
		return err
	}
	return n.Close()
}

// JoinNode adds (or re-adds, after a crash) a node with the given id:
// a fresh process registers a new session, rendezvous placement hands
// its slots back (identity-stable weights mean a rejoining node
// reclaims exactly the slots it owned), and the handoff syncs copy
// those slots' current state into it before it serves.
func (r *Router) JoinNode(id NodeID) error {
	if err := r.serving("JoinNode"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[id]; ok {
		return &MembershipError{Node: id, Op: "JoinNode", Reason: "already a member"}
	}
	n, err := r.newNodeLocked(id)
	if err != nil {
		return err
	}
	r.nodes[id] = n
	r.ids = sortedIDs(r.nodes)
	return r.rebalanceLocked()
}

// rebalanceLocked recomputes the slot assignment from the available
// fleet and performs handoff syncs: every node newly holding a slot
// receives that slot's state from a surviving previous holder before
// the new placement takes effect. Primary moves count as handoffs
// (caller holds mu).
func (r *Router) rebalanceLocked() error {
	avail := r.availableLocked()
	want := 1 + r.cfg.Replicas
	dumps := make(map[NodeID]map[string][]byte)
	var next [NumSlots][]NodeID
	for slot := 0; slot < NumSlots; slot++ {
		ranks := RankNodes(slot, avail)
		if len(ranks) > want {
			ranks = ranks[:want]
		}
		next[slot] = ranks
		old := r.assign[slot]
		if len(old) > 0 && len(ranks) > 0 && old[0] != ranks[0] {
			r.handoffs.Add(1)
		}
		if len(old) == 0 {
			continue // initial placement: every cache is empty, nothing to sync
		}
		wasHolder := make(map[NodeID]bool, len(old))
		for _, id := range old {
			wasHolder[id] = true
		}
		var source NodeID = -1
		for _, id := range old {
			if r.reachableLocked(id) {
				source = id
				break
			}
		}
		if source < 0 {
			continue // no surviving holder: the slot's state is lost (Replicas too low for this fault)
		}
		for _, id := range ranks {
			if wasHolder[id] || id == source {
				continue
			}
			if err := r.syncSlotLocked(id, slot, source, dumps); err != nil {
				return err
			}
		}
	}
	r.assign = next
	return nil
}

// resyncNodeLocked reconciles every slot a node holds as a replica
// against that slot's primary (sets for the primary's keys, deletes
// for stale extras), bringing a healed node back in sync (caller holds
// mu).
func (r *Router) resyncNodeLocked(id NodeID) error {
	dumps := make(map[NodeID]map[string][]byte)
	for slot := 0; slot < NumSlots; slot++ {
		holders := r.assign[slot]
		if len(holders) < 2 || holders[0] == id {
			continue
		}
		isHolder := false
		for _, h := range holders[1:] {
			if h == id {
				isHolder = true
				break
			}
		}
		if !isHolder {
			continue
		}
		if err := r.syncSlotLocked(id, slot, holders[0], dumps); err != nil {
			return err
		}
	}
	return nil
}

// syncSlotLocked reconciles target's copy of slot against source:
// source's keys in the slot are upserted into target, and target keys
// absent from source are deleted. Source dumps are cached across slots
// in dumps; a mutated target's cache entry is invalidated (caller
// holds mu).
func (r *Router) syncSlotLocked(target NodeID, slot int, source NodeID, dumps map[NodeID]map[string][]byte) error {
	tn, ok := r.nodes[target]
	if !ok {
		return &MembershipError{Node: target, Op: "sync", Reason: "unknown target"}
	}
	sm, err := r.dumpNodeLocked(source, dumps)
	if err != nil {
		return err
	}
	tm, err := tn.Dump()
	if err != nil {
		return fmt.Errorf("cluster: sync slot %d: dump target %d: %w", slot, target, err)
	}
	for _, k := range sortedKeys(sm) {
		if KeySlot(k) != slot {
			continue
		}
		if err := tn.Apply(workload.Request{Op: workload.OpSet, Key: k, Value: sm[k]}); err != nil {
			return fmt.Errorf("cluster: sync slot %d -> node %d: %w", slot, target, err)
		}
	}
	for _, k := range sortedKeys(tm) {
		if KeySlot(k) != slot {
			continue
		}
		if _, ok := sm[k]; ok {
			continue
		}
		if err := tn.Apply(workload.Request{Op: workload.OpDelete, Key: k}); err != nil {
			return fmt.Errorf("cluster: sync slot %d -> node %d: %w", slot, target, err)
		}
	}
	delete(dumps, target)
	return nil
}

// dumpNodeLocked returns a node's full dump, cached in dumps (caller
// holds mu).
func (r *Router) dumpNodeLocked(id NodeID, dumps map[NodeID]map[string][]byte) (map[string][]byte, error) {
	if m, ok := dumps[id]; ok {
		return m, nil
	}
	n, ok := r.nodes[id]
	if !ok {
		return nil, &MembershipError{Node: id, Op: "dump", Reason: "unknown node"}
	}
	m, err := n.Dump()
	if err != nil {
		return nil, fmt.Errorf("cluster: dump node %d: %w", id, err)
	}
	dumps[id] = m
	return m, nil
}

// sortedKeys returns m's keys ascending — the deterministic-iteration
// idiom for dump maps.
func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Dump returns the cluster's authoritative key→value state: the union,
// slot by slot, of each slot primary's keys. This is the survivor
// digest's currency — it must equal a single pool's dump given the
// same acked mutation stream.
func (r *Router) Dump() (map[string][]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]byte)
	dumps := make(map[NodeID]map[string][]byte)
	for slot := 0; slot < NumSlots; slot++ {
		holders := r.assign[slot]
		if len(holders) == 0 {
			continue
		}
		m, err := r.dumpNodeLocked(holders[0], dumps)
		if err != nil {
			return nil, err
		}
		for _, k := range sortedKeys(m) {
			if KeySlot(k) == slot {
				out[k] = m[k]
			}
		}
	}
	return out, nil
}

// Scan pages through the cluster's keys: the request fans out to every
// live node, pages merge in sorted key order, and slot ownership
// filters duplicates (replica copies) out — so a cluster scan returns
// exactly the keys a single pool's scan would.
func (r *Router) Scan(prefix, cursor string, limit int) (kvstore.ScanResult, error) {
	if err := r.serving("Scan"); err != nil {
		return kvstore.ScanResult{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.tickLocked(1)
	merged := make(map[string]kvstore.ScanItem)
	for _, id := range r.ids {
		if r.partitioned[id] {
			continue
		}
		res, err := r.nodes[id].Scan(prefix, cursor, limit)
		if err != nil {
			return kvstore.ScanResult{}, err
		}
		for _, it := range res.Items {
			holders := r.assign[KeySlot(it.Key)]
			if len(holders) > 0 && holders[0] == id {
				merged[it.Key] = it
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out kvstore.ScanResult
	for _, k := range keys {
		if limit > 0 && len(out.Items) == limit {
			out.Cursor = out.Items[len(out.Items)-1].Key
			break
		}
		out.Items = append(out.Items, merged[k])
	}
	return out, nil
}

// Handoffs returns the count of slot-primary moves performed by
// rebalances (crash failovers, retires, joins).
func (r *Router) Handoffs() uint64 { return r.handoffs.Load() }

// Dispatched returns the count of requests routed to a node.
func (r *Router) Dispatched() uint64 { return r.dispatched.Load() }

// Unavailable returns the count of requests nacked with a typed
// *UnavailableError (never executed).
func (r *Router) Unavailable() uint64 { return r.unavailable.Load() }

// Members returns the registry's membership snapshot.
func (r *Router) Members() []Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reg.Snapshot()
}

// Epoch returns the membership epoch.
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.reg.Epoch()
}

// NodeIDs returns the current fleet's ids, ascending, in a slice the
// caller owns.
func (r *Router) NodeIDs() []NodeID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.ids)
}

// Stats aggregates server accounting across the fleet.
func (r *Router) Stats() kvstore.ServerStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var agg kvstore.ServerStats
	for _, id := range r.ids {
		st := r.nodes[id].Stats()
		agg.Requests += st.Requests
		agg.Violations += st.Violations
		agg.Crashes += st.Crashes
		agg.Dropped += st.Dropped
		agg.Preempted += st.Preempted
	}
	return agg
}

// VirtualTime returns the cluster's parallel makespan: the maximum
// virtual time across nodes, which run concurrently.
func (r *Router) VirtualTime() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var max int64
	for _, id := range r.ids {
		if vt := r.nodes[id].VirtualTime(); vt > max {
			max = vt
		}
	}
	return max
}
