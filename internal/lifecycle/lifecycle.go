// Package lifecycle is the shared component-lifecycle contract of the
// repository: one typed state machine — Initializing → Healthy →
// Degraded → Draining → Stopped — implemented by every long-lived
// component (Domain, Pool, AsyncPool, the kvstore pool, the serving
// frontend, the campaign executors, and the cluster nodes).
//
// The pattern follows the Milvus Component Init/Start/Stop/
// GetComponentStates shape: construction is cheap and deferred (a
// component is born Initializing), Init allocates its resources, Start
// makes it serve, Drain stops admission while preserving acknowledged
// work, and Stop tears it down. Illegal transitions — Start before
// Init, a second Stop, Resize while Draining — fail with a typed
// *LifecycleError instead of corrupting state, and health only moves
// forward: the state rank is monotone, so observers never see a
// component "un-drain" or "un-stop".
//
// Machine is the one implementation every component embeds; the
// conformance suite in lifecycletest asserts the contract against each
// of them. DESIGN.md §13 develops the full argument, including why
// elastic pool resizing hangs off this machine's Healthy/Degraded
// states.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// State is one point in the lifecycle state machine. The zero value is
// StateInitializing, so a zero Machine is a freshly constructed
// component. States are ordered: transitions only increase the rank
// (with the single exception Healthy ↔ Degraded, which share a rank —
// degradation is a health annotation, not a lifecycle step backwards).
type State int32

// The lifecycle states, in rank order.
const (
	// StateInitializing is the birth state: constructed, resources not
	// yet allocated (before Init) or allocated but not serving (after
	// Init, before Start).
	StateInitializing State = iota
	// StateHealthy is the serving state entered by Start.
	StateHealthy
	// StateDegraded is Healthy with a lasting fault annotation (e.g. a
	// snapshot failure left durability log-only). The component still
	// serves.
	StateDegraded
	// StateDraining is entered by Drain: admission has stopped and
	// queued work is being preserved; the component no longer accepts
	// new requests.
	StateDraining
	// StateStopped is terminal: resources released by Stop (or Close).
	StateStopped
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateInitializing:
		return "initializing"
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
	// Op is the refused operation ("Start", "Stop", "Resize", ...).
	Op string
	// From is the state the component was in when it refused.
	From State
	// Reason explains the refusal when the state alone is ambiguous
	// (e.g. "before Init").
	Reason string
}

// Error implements error.
func (e *LifecycleError) Error() string {
	msg := fmt.Sprintf("lifecycle: %s: illegal %s in state %s", e.Component, e.Op, e.From)
	if e.Reason != "" {
		msg += " (" + e.Reason + ")"
	}
	return msg
}

// IsLifecycle reports whether err is (or wraps) a *LifecycleError,
// returning it — the comma-ok classifier for lifecycle rejections.
func IsLifecycle(err error) (*LifecycleError, bool) {
	var le *LifecycleError
	if errors.As(err, &le) {
		return le, true
	}
	return nil, false
}

// Component is the shared lifecycle interface: Init allocates, Start
// serves, Drain stops admission while preserving acknowledged work,
// Stop tears down. Stop takes a context because teardown may flush
// durable state; Init/Start/Drain are bounded by the component's own
// configuration. State is safe to call concurrently with any
// transition.
type Component interface {
	// Init allocates the component's resources. Legal exactly once,
	// from StateInitializing.
	Init() error
	// Start makes the component serve. Legal exactly once, after Init.
	Start() error
	// Drain stops admission and preserves acknowledged work. Legal
	// after Start; idempotent (a second Drain returns the first
	// outcome).
	Drain() error
	// Stop tears the component down. Legal exactly once after Init; a
	// second Stop returns a *LifecycleError (use Close for the
	// idempotent form).
	Stop(ctx context.Context) error
	// State returns the current lifecycle state.
	State() State
}

// Resizer is implemented by elastic components whose worker count can
// change at runtime. Resize is legal only while Healthy or Degraded —
// resizing a Draining or Stopped component returns a *LifecycleError.
type Resizer interface {
	// Resize grows or shrinks to n workers.
	Resize(n int) error
	// Workers returns the current worker count.
	Workers() int
}

// Machine is the one lifecycle state machine every component embeds.
// Transitions run their work function under the machine's mutex, so a
// component's Init/Start/Drain/Stop bodies are mutually serialized;
// State reads an atomic mirror and never blocks on an in-progress
// transition. The zero Machine is unusable — create with NewMachine so
// errors carry the component name.
type Machine struct {
	mu   sync.Mutex
	name string

	state   atomic.Int32 // mirror of cur, for lock-free State()
	cur     State
	inited  bool
	started bool

	drained  bool
	drainErr error

	stopped bool
	stopErr error
}

// NewMachine returns a Machine in StateInitializing for the named
// component.
func NewMachine(name string) *Machine {
	return &Machine{name: name}
}

// State returns the current lifecycle state without blocking on
// in-progress transitions.
func (m *Machine) State() State { return State(m.state.Load()) }

// Name returns the component name the machine was created with.
func (m *Machine) Name() string { return m.name }

// set records a transition (caller holds mu).
func (m *Machine) set(s State) {
	m.cur = s
	m.state.Store(int32(s))
}

// refuse builds the typed rejection (caller holds mu).
func (m *Machine) refuse(op, reason string) error {
	return &LifecycleError{Component: m.name, Op: op, From: m.cur, Reason: reason}
}

// Init runs fn as the component's resource allocation. Legal exactly
// once, from StateInitializing; the state stays Initializing (Start
// moves it to Healthy). A failed fn leaves the machine un-inited so a
// caller may retry.
func (m *Machine) Init(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur != StateInitializing {
		return m.refuse("Init", "")
	}
	if m.inited {
		return m.refuse("Init", "already initialized")
	}
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	m.inited = true
	return nil
}

// Start runs fn as the component's serving transition and moves the
// machine to StateHealthy. Legal exactly once, after Init.
func (m *Machine) Start(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.inited {
		return m.refuse("Start", "before Init")
	}
	if m.started || m.cur != StateInitializing {
		return m.refuse("Start", "")
	}
	if fn != nil {
		if err := fn(); err != nil {
			return err
		}
	}
	m.started = true
	m.set(StateHealthy)
	return nil
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
// illegal before Start or after Stop.
//
// The machine moves to StateDraining before fn runs, so the lock-free
// observers (State, Resizable) report the transition while the drain
// work is still in progress. Components rely on that ordering to stop
// helper goroutines from inside fn: a helper probing Resizable sees an
// immediate refusal instead of blocking on the mutex fn's caller holds.
func (m *Machine) Drain(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.drained {
		return m.drainErr
	}
	if m.cur != StateHealthy && m.cur != StateDegraded {
		return m.refuse("Drain", "")
	}
	m.set(StateDraining)
	m.drained = true
	if fn != nil {
		m.drainErr = fn()
	}
	return m.drainErr
}

// Stop runs fn as the component's teardown and moves the machine to
// StateStopped. Legal from Healthy, Degraded, Draining, or an
// initialized-but-never-started component; a second Stop returns a
// *LifecycleError (Close is the memoized idempotent form).
func (m *Machine) Stop(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return m.refuse("Stop", "already stopped")
	}
	if !m.inited {
		return m.refuse("Stop", "before Init")
	}
	return m.stopLocked(fn)
}

// stopLocked performs the teardown transition (caller holds mu and has
// validated legality). Like Drain, it publishes StateStopped before
// running fn, so lock-free observers see the transition while teardown
// is still in progress.
func (m *Machine) stopLocked(fn func() error) error {
	m.stopped = true
	m.set(StateStopped)
	if fn != nil {
		m.stopErr = fn()
	}
	return m.stopErr
}

// Close is the idempotent wrapper over Stop that legacy Close methods
// map onto: the first call stops (running fn) and memoizes the
// outcome, later calls return that outcome without re-running fn. A
// Close before Init succeeds as a no-op (tearing down a husk is not an
// error).
func (m *Machine) Close(fn func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stopped {
		return m.stopErr
	}
	if !m.inited {
		// Nothing was allocated; just pin the terminal state.
		m.stopped = true
		m.set(StateStopped)
		return nil
	}
	return m.stopLocked(fn)
}

// Resizable returns nil when a resize is legal (serving: Healthy or
// Degraded) and the typed refusal otherwise — the gate every elastic
// component's Resize calls first.
//
// Resizable is deliberately lock-free: it reads the atomic state mirror
// and never takes the machine mutex. Drain and Stop hold that mutex
// while their work functions run, and those work functions may wait for
// an elastic controller goroutine to exit — a goroutine whose resize
// loop probes Resizable. Because the state is published before the work
// function starts, such a probe observes the Draining/Stopped refusal
// immediately instead of deadlocking against the transition waiting for
// it.
func (m *Machine) Resizable() error {
	s := m.State()
	if s == StateHealthy || s == StateDegraded {
		return nil
	}
	reason := ""
	if s == StateInitializing {
		reason = "before Start"
	}
	return &LifecycleError{Component: m.name, Op: "Resize", From: s, Reason: reason}
}

// Monotone reports whether a transition from s to t respects the
// forward-only rank order — the invariant the conformance suite
// asserts over every observed state sequence.
func Monotone(s, t State) bool { return t.rank() >= s.rank() }
