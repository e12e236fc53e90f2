// Package lifecycle is the shared component-lifecycle contract of the
// repository: one typed state machine — Healthy → Degraded → Draining →
// Stopped — implemented by every long-lived component (Domain, Pool,
// AsyncPool, the kvstore pool, the serving frontend, and the cluster
// router, registry and nodes).
//
// A component has one constructor, and it returns the component
// serving: construction allocates its resources, Drain stops admission
// while preserving acknowledged work, and Close tears it down. Illegal
// transitions — Drain after Close, a call after Drain — fail with a
// typed *LifecycleError instead of corrupting state, and health only
// moves forward: the state rank is monotone, so observers never see a
// component "un-drain" or "un-stop".
//
// Machine is the one implementation every component embeds; the
// conformance suite in lifecycletest asserts the contract against each
// of them. DESIGN.md §13 develops the full argument.
package lifecycle

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/errtype"
)

// State is one point in the lifecycle state machine. States are
// ordered: transitions only increase the rank (with the single
// exception Healthy ↔ Degraded, which share a rank — degradation is a
// health annotation, not a lifecycle step backwards).
type State int32

// The lifecycle states, in rank order.
const (
	// StateHealthy is the serving state a component is constructed in.
	StateHealthy State = iota
	// StateDegraded is Healthy with a lasting fault annotation (e.g. a
	// snapshot failure left durability log-only). The component still
	// serves.
	StateDegraded
	// StateDraining is entered by Drain: admission has stopped and
	// queued work is being preserved; the component no longer accepts
	// new requests.
	StateDraining
	// StateStopped is terminal: resources released by Close.
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// rank orders states for the monotonicity invariant. Healthy and
// Degraded share a rank: a degraded component may not return to
// plain Healthy through the machine (degradation is sticky), but the
// two are the same lifecycle stage.
func (s State) rank() int {
	if s == StateDegraded {
		return StateHealthy.rank()
	}
	return int(s)
}

// LifecycleError reports an illegal lifecycle transition: the operation
// attempted, the component it was attempted on, and the state that
// refused it. It is the typed rejection every Component implementation
// returns instead of silently misbehaving.
type LifecycleError struct {
	// Component names the refusing component (e.g. "sdrad.Pool").
	Component string
	// Op is the refused operation ("Drain", "Register", ...).
	Op string
	// From is the state the component was in when it refused.
	From State
}

// Error implements error.
func (e *LifecycleError) Error() string {
	return fmt.Sprintf("lifecycle: %s: illegal %s in state %s", e.Component, e.Op, e.From)
}

// IsLifecycle reports whether err is (or wraps) a *LifecycleError,
// returning it — the comma-ok classifier for lifecycle rejections.
func IsLifecycle(err error) (*LifecycleError, bool) {
	return errtype.As[*LifecycleError](err)
}

// Component is the shared lifecycle interface. A component's
// constructor returns it serving (StateHealthy); Drain stops admission
// while preserving acknowledged work, and Close tears it down. State is
// safe to call concurrently with any transition.
type Component interface {
	// Drain stops admission and preserves acknowledged work. Legal
	// while serving; idempotent (a second Drain returns the first
	// outcome).
	Drain() error
	// Close tears the component down. Idempotent: a second Close
	// returns the first outcome.
	Close() error
	// State returns the current lifecycle state.
	State() State
}

// Machine is the one lifecycle state machine every component embeds.
// Transitions run their work function under the machine's mutex, so a
// component's Drain and Close bodies are mutually serialized; State
// reads an atomic mirror and never blocks on an in-progress
// transition. The zero Machine is unusable — create with NewMachine so
// errors carry the component name.
type Machine struct {
	mu   sync.Mutex
	name string

	state atomic.Int32 // mirror of cur, for lock-free State()
	cur   State

	drained  bool
	drainErr error

	stopped bool
	stopErr error
}

// NewMachine returns a Machine in StateHealthy for the named component:
// the component's constructor has allocated its resources by the time
// it hands the machine out.
func NewMachine(name string) *Machine {
	return &Machine{name: name}
}

// State returns the current lifecycle state without blocking on
// in-progress transitions.
func (m *Machine) State() State { return State(m.state.Load()) }

// set records a transition (caller holds mu).
func (m *Machine) set(s State) {
	m.cur = s
	m.state.Store(int32(s))
}

// Degrade annotates a serving component with a lasting fault: Healthy
// becomes Degraded. It reports whether the state changed (false when
// already Degraded or not serving — degradation never moves the
// machine backwards from Draining/Stopped).
func (m *Machine) Degrade() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur != StateHealthy {
		return false
	}
	m.set(StateDegraded)
	return true
}

// Drain runs fn as the component's graceful-drain step and moves the
// machine to StateDraining. Legal from Healthy or Degraded; idempotent
// (a second Drain returns the first outcome without re-running fn);
// illegal after Close.
//
// The machine moves to StateDraining before fn runs, so the lock-free
// State reports the transition while the drain work is still in
// progress: a helper goroutine fn waits for, or a health probe, sees
// Draining at once instead of blocking on the mutex fn's caller holds.
func (m *Machine) Drain(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.drained {
		return m.drainErr
	}
	if m.cur != StateHealthy && m.cur != StateDegraded {
		return &LifecycleError{Component: m.name, Op: "Drain", From: m.cur}
	}
	m.set(StateDraining)
	m.drained = true
	if fn != nil {
		m.drainErr = fn()
	}
	return m.drainErr
}

// Close runs fn as the component's teardown and moves the machine to
// StateStopped. Legal from any state; the first call runs fn and
// memoizes its outcome, later calls return that outcome without
// re-running fn. Like Drain, it publishes StateStopped before running
// fn, so lock-free observers see the transition while teardown is
// still in progress.
func (m *Machine) Close(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return m.stopErr
	}
	m.stopped = true
	m.set(StateStopped)
	if fn != nil {
		m.stopErr = fn()
	}
	return m.stopErr
}

// Monotone reports whether a transition from s to t respects the
// forward-only rank order — the invariant the conformance suite
// asserts over every observed state sequence.
func Monotone(s, t State) bool { return t.rank() >= s.rank() }
