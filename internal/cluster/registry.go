package cluster

import (
	"sync"

	"repro/internal/lifecycle"
)

// DefaultLeaseCycles is the default lease duration in membership
// cycles: a node whose lease has not been renewed for this many cycles
// turns Degraded, and after a grace window of the same length it is
// declared Dead (the Milvus etcd-session analogue: lease expiry deletes
// the session key and the node is considered offline).
const DefaultLeaseCycles = 8

// MemberState is a node's lease-derived health, expressed in the shared
// lifecycle vocabulary: StateHealthy while the lease is fresh,
// StateDegraded once it is stale but within the grace window, and
// StateStopped once it has expired (the node is dead until it
// re-registers with a new session).
type MemberState = lifecycle.State

// Member is one row of a membership snapshot.
type Member struct {
	// ID is the node's identity.
	ID NodeID
	// State is the lease-derived health (Healthy/Degraded/Stopped).
	State MemberState
	// Age is the membership cycles elapsed since the last renewal.
	Age uint64
}

// Registry tracks node registration and lease-based health. Time is the
// membership clock — a counter advanced by Tick (the router ticks it
// once per request arrival), never by wall time — so every state
// transition, and therefore every failover, is a deterministic function
// of the request schedule.
//
// Session semantics follow the Milvus lease pattern: Register opens a
// session, Renew refreshes its lease, a session whose lease goes stale
// degrades and then dies, and a dead id can only come back by
// re-registering (a new session, bumping the membership epoch).
// Registry is safe for concurrent use and implements
// lifecycle.Component (the conformance battery runs against it).
type Registry struct {
	lc *lifecycle.Machine

	mu    sync.Mutex
	lease uint64 // lease duration in cycles (grace window is one more lease)
	now   uint64 // membership clock
	epoch uint64 // bumped on every membership change
	// members holds the live and dead sessions; iteration always goes
	// through sortedIDsLocked for determinism.
	members map[NodeID]*session
	// ids caches members' keys, ascending; nil when a registration or
	// deregistration changed the key set since it was built.
	ids []NodeID
}

// session is one node's registration.
type session struct {
	renewedAt uint64
	dead      bool
}

// NewRegistry returns a serving registry with an empty member table.
func NewRegistry(leaseCycles uint64) *Registry {
	if leaseCycles == 0 {
		leaseCycles = DefaultLeaseCycles
	}
	return &Registry{
		lc:      lifecycle.NewMachine("cluster.Registry"),
		lease:   leaseCycles,
		members: make(map[NodeID]*session),
	}
}

// Drain stops admission of new registrations; existing sessions keep
// renewing (their work is being preserved elsewhere). Idempotent.
func (r *Registry) Drain() error { return r.lc.Drain(nil) }

// Close tears the registry down, dropping every session. Idempotent.
func (r *Registry) Close() error {
	return r.lc.Close(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.members, r.ids = nil, nil
		return nil
	})
}

// State returns the registry's lifecycle state.
func (r *Registry) State() lifecycle.State { return r.lc.State() }

// Interface compliance: the registry implements the shared lifecycle
// contract.
var _ lifecycle.Component = (*Registry)(nil)

// LeaseCycles returns the configured lease duration in cycles.
func (r *Registry) LeaseCycles() uint64 { return r.lease }

// serving returns a typed refusal unless the registry accepts
// membership operations (Healthy or Degraded).
func (r *Registry) serving(op string) error {
	s := r.lc.State()
	if s == lifecycle.StateHealthy || s == lifecycle.StateDegraded {
		return nil
	}
	return &lifecycle.LifecycleError{Component: "cluster.Registry", Op: op, From: s}
}

// Register opens (or re-opens, after death) a session for id with a
// fresh lease. Registering an id that already holds a live session is a
// typed *MembershipError; replacing a dead session is the rejoin path
// and bumps the epoch like any membership change.
func (r *Registry) Register(id NodeID) error {
	if err := r.serving("Register"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.members[id]
	if ok && !s.dead && r.stateLocked(s) != lifecycle.StateStopped {
		return &MembershipError{Node: id, Op: "Register", Reason: "session already live"}
	}
	if !ok {
		r.ids = nil
	}
	r.members[id] = &session{renewedAt: r.now}
	r.epoch++
	return nil
}

// Renew refreshes id's lease. Renewing an expired (dead) or unknown
// session is a typed *MembershipError — the node must re-register.
func (r *Registry) Renew(id NodeID) error {
	if err := r.serving("Renew"); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.members[id]
	if !ok {
		return &MembershipError{Node: id, Op: "Renew", Reason: "unknown node"}
	}
	if s.dead || r.stateLocked(s) == lifecycle.StateStopped {
		s.dead = true
		return &MembershipError{Node: id, Op: "Renew", Reason: "lease expired; re-register"}
	}
	s.renewedAt = r.now
	return nil
}

// Deregister closes id's session gracefully (rolling-restart and drain
// path). Unknown ids are a typed *MembershipError.
func (r *Registry) Deregister(id NodeID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[id]; !ok {
		return &MembershipError{Node: id, Op: "Deregister", Reason: "unknown node"}
	}
	delete(r.members, id)
	r.ids = nil
	r.epoch++
	return nil
}

// Tick advances the membership clock by n cycles. The router calls it
// once per request arrival; tests and failover steps call it directly
// to model quiet time passing.
func (r *Registry) Tick(n uint64) {
	r.mu.Lock()
	r.now += n
	r.mu.Unlock()
}

// Epoch returns the membership epoch (bumped on every register,
// deregister, and death).
func (r *Registry) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// stateLocked derives a session's lease state (caller holds mu).
func (r *Registry) stateLocked(s *session) MemberState {
	if s.dead {
		return lifecycle.StateStopped
	}
	age := r.now - s.renewedAt
	switch {
	case age <= r.lease:
		return lifecycle.StateHealthy
	case age <= 2*r.lease:
		return lifecycle.StateDegraded
	default:
		return lifecycle.StateStopped
	}
}

// Sweep pins newly expired sessions as dead and returns their ids in
// ascending order, bumping the epoch once if any died. The router calls
// it after ticking to trigger handoff for every node whose lease ran
// out.
func (r *Registry) Sweep() []NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	var died []NodeID
	for _, id := range r.sortedIDsLocked() {
		s := r.members[id]
		if !s.dead && r.stateLocked(s) == lifecycle.StateStopped {
			s.dead = true
			died = append(died, id)
		}
	}
	if len(died) > 0 {
		r.epoch++
	}
	return died
}

// Snapshot returns the membership in ascending id order.
func (r *Registry) Snapshot() []Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Member, 0, len(r.members))
	for _, id := range r.sortedIDsLocked() {
		s := r.members[id]
		out = append(out, Member{ID: id, State: r.stateLocked(s), Age: r.now - s.renewedAt})
	}
	return out
}

// sortedIDsLocked returns member ids in ascending order (caller holds
// mu), sorting only after the key set changed. The slice is shared:
// callers iterate it and never hand it out.
func (r *Registry) sortedIDsLocked() []NodeID {
	if r.ids == nil {
		r.ids = sortedIDs(r.members)
	}
	return r.ids
}
