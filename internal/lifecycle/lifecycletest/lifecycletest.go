// Package lifecycletest is the table-driven conformance suite for
// lifecycle.Component implementations. Every component that embeds a
// lifecycle.Machine runs the same battery: a freshly constructed
// component is serving, an illegal transition is rejected with a typed
// *LifecycleError (Drain after Close), the observed state sequence is
// rank-monotone, Drain and Close are idempotent, and a closed component
// stays closed. Run it from a component package's tests with a factory
// that calls the component's constructor once per case.
//
//lint:allow unusedexport a test battery: only the components' tests import it
package lifecycletest

import (
	"testing"

	"repro/internal/lifecycle"
)

// Case is one component under conformance test.
type Case struct {
	// Name labels the subtest.
	Name string
	// New builds a fresh component through its constructor. It is
	// invoked once per subtest, so it must not share state across
	// invocations.
	New func(t *testing.T) lifecycle.Component
}

// Run executes the conformance battery for every case.
func Run(t *testing.T, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			t.Run("full-lifecycle", tc.fullLifecycle)
			t.Run("close-idempotent", tc.closeIdempotent)
		})
	}
}

// wantLifecycleErr asserts err is a typed *LifecycleError for op.
func wantLifecycleErr(t *testing.T, err error, op string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected *LifecycleError, got nil", op)
	}
	le, ok := lifecycle.IsLifecycle(err)
	if !ok {
		t.Fatalf("%s: expected *LifecycleError, got %T: %v", op, err, err)
	}
	if le.Op == "" || le.Component == "" {
		t.Fatalf("%s: LifecycleError missing op/component: %+v", op, le)
	}
}

// stateTracker asserts the component's state rank never decreases.
type stateTracker struct {
	t    *testing.T
	c    lifecycle.Component
	prev lifecycle.State
}

func (st *stateTracker) check(after string) {
	st.t.Helper()
	cur := st.c.State()
	if !lifecycle.Monotone(st.prev, cur) {
		st.t.Fatalf("after %s: state went backwards: %s -> %s", after, st.prev, cur)
	}
	st.prev = cur
}

// fullLifecycle: construct → Drain → Close, with the double calls
// memoized and the state sequence monotone.
func (tc Case) fullLifecycle(t *testing.T) {
	c := tc.New(t)
	if got := c.State(); got != lifecycle.StateHealthy {
		t.Fatalf("constructed component state = %s, want %s", got, lifecycle.StateHealthy)
	}
	st := &stateTracker{t: t, c: c, prev: c.State()}

	if err := c.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st.check("Drain")
	if got := c.State(); got != lifecycle.StateDraining {
		t.Fatalf("state after Drain = %s, want %s", got, lifecycle.StateDraining)
	}
	// Drain is idempotent: the second call returns the memoized
	// outcome, not a typed refusal.
	if err := c.Drain(); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
	st.check("double-Drain")

	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st.check("Close")
	if got := c.State(); got != lifecycle.StateStopped {
		t.Fatalf("state after Close = %s, want %s", got, lifecycle.StateStopped)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close (must return the first outcome): %v", err)
	}
	st.check("double-Close")
}

// closeIdempotent: Close straight from serving is idempotent (the
// second Close returns the first outcome, here nil) and terminal — a
// closed component refuses Drain.
func (tc Case) closeIdempotent(t *testing.T) {
	c := tc.New(t)
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close (must be idempotent): %v", err)
	}
	if got := c.State(); got != lifecycle.StateStopped {
		t.Fatalf("state after Close = %s, want %s", got, lifecycle.StateStopped)
	}
	wantLifecycleErr(t, c.Drain(), "Drain-after-Close")
}
