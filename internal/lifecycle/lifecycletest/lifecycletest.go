// Package lifecycletest is the table-driven conformance suite for
// lifecycle.Component implementations. Every component that embeds a
// lifecycle.Machine runs the same battery: illegal transitions are
// rejected with a typed *LifecycleError (Start before Init, double
// Start, double Stop, Resize while Draining), the observed state
// sequence is rank-monotone, Drain and Close are idempotent, and a
// stopped component stays stopped. Run it from a component package's
// tests with a factory that builds a pristine (deferred, un-Inited)
// instance per case.
//
//lint:allow unusedexport a test battery: only the components' tests import it
package lifecycletest

import (
	"context"
	"testing"

	"repro/internal/lifecycle"
)

// Case is one component under conformance test.
type Case struct {
	// Name labels the subtest.
	Name string
	// New builds a pristine component: constructed, Init not yet
	// called. It is invoked several times per case, so it must not
	// share state across invocations.
	New func(t *testing.T) lifecycle.Component
	// Resize, when non-nil, resizes the component (which must then
	// also reject resizes while draining/stopped). Grow and Shrink are
	// the worker counts exercised while healthy; both default to
	// skipping the healthy-resize probe when zero.
	Resize func(c lifecycle.Component, n int) error
	// Grow and Shrink are the counts passed to Resize while Healthy
	// (ignored when Resize is nil).
	Grow, Shrink int
}

// Run executes the conformance battery for every case.
func Run(t *testing.T, cases []Case) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			t.Run("illegal-before-init", tc.illegalBeforeInit)
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

// illegalBeforeInit: a pristine component refuses Start, Drain, and
// Resize, and stays Initializing through the refusals.
func (tc Case) illegalBeforeInit(t *testing.T) {
	c := tc.New(t)
	if got := c.State(); got != lifecycle.StateInitializing {
		t.Fatalf("fresh component state = %s, want %s", got, lifecycle.StateInitializing)
	}
	wantLifecycleErr(t, c.Start(), "Start-before-Init")
	wantLifecycleErr(t, c.Drain(), "Drain-before-Init")
	if tc.Resize != nil {
		wantLifecycleErr(t, tc.Resize(c, 2), "Resize-before-Init")
	}
	if got := c.State(); got != lifecycle.StateInitializing {
		t.Fatalf("state after refused transitions = %s, want %s", got, lifecycle.StateInitializing)
	}
	// Teardown of the husk must not leak: Stop on an un-inited
	// component is a typed refusal, not a crash.
	wantLifecycleErr(t, c.Stop(context.Background()), "Stop-before-Init")
}

// fullLifecycle: Init → Start → (Resize) → Drain → Stop, with every
// double transition rejected and the state sequence monotone.
func (tc Case) fullLifecycle(t *testing.T) {
	c := tc.New(t)
	st := &stateTracker{t: t, c: c, prev: c.State()}

	if err := c.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	st.check("Init")
	wantLifecycleErr(t, c.Init(), "double-Init")
	if got := c.State(); got != lifecycle.StateInitializing {
		t.Fatalf("state after Init = %s, want %s (Start flips to healthy)", got, lifecycle.StateInitializing)
	}

	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	st.check("Start")
	if got := c.State(); got != lifecycle.StateHealthy {
		t.Fatalf("state after Start = %s, want %s", got, lifecycle.StateHealthy)
	}
	wantLifecycleErr(t, c.Start(), "double-Start")

	if tc.Resize != nil && tc.Grow > 0 {
		if err := tc.Resize(c, tc.Grow); err != nil {
			t.Fatalf("Resize(grow=%d) while healthy: %v", tc.Grow, err)
		}
		st.check("Resize-grow")
	}
	if tc.Resize != nil && tc.Shrink > 0 {
		if err := tc.Resize(c, tc.Shrink); err != nil {
			t.Fatalf("Resize(shrink=%d) while healthy: %v", tc.Shrink, err)
		}
		st.check("Resize-shrink")
	}

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
	if tc.Resize != nil {
		wantLifecycleErr(t, tc.Resize(c, 4), "Resize-while-Draining")
	}

	if err := c.Stop(context.Background()); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st.check("Stop")
	if got := c.State(); got != lifecycle.StateStopped {
		t.Fatalf("state after Stop = %s, want %s", got, lifecycle.StateStopped)
	}
	wantLifecycleErr(t, c.Stop(context.Background()), "double-Stop")
	if tc.Resize != nil {
		wantLifecycleErr(t, tc.Resize(c, 4), "Resize-after-Stop")
	}
	st.check("double-Stop")
}

// closeIdempotent: a component that also has a legacy Close must make
// it idempotent (second Close returns the first outcome, here nil) and
// terminal.
func (tc Case) closeIdempotent(t *testing.T) {
	c := tc.New(t)
	if err := c.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl, ok := c.(interface{ Close() error })
	if !ok {
		t.Skip("component has no Close")
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("second Close (must be idempotent): %v", err)
	}
	if got := c.State(); got != lifecycle.StateStopped {
		t.Fatalf("state after Close = %s, want %s", got, lifecycle.StateStopped)
	}
	// Stop after Close is the strict form: typed refusal.
	wantLifecycleErr(t, c.Stop(context.Background()), "Stop-after-Close")
}
