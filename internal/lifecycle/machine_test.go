package lifecycle_test

import (
	"testing"
	"time"

	"repro/internal/lifecycle"
)

// TestResizableDuringTransition pins the lock-freedom contract: while a
// Drain/Stop/Close work function is still running (the machine mutex is
// held for the whole transition), State already reports the new state
// and Resizable returns the typed refusal immediately instead of
// blocking on the mutex. A work function that waits for a goroutine
// which is resizing, and so probes Resizable, would otherwise deadlock:
// the transition waiting on the goroutine and the goroutine on the
// transition's mutex.
func TestResizableDuringTransition(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *lifecycle.Machine, fn func() error) error
		want lifecycle.State
	}{
		{"Drain", func(m *lifecycle.Machine, fn func() error) error { return m.Drain(fn) }, lifecycle.StateDraining},
		{"Stop", func(m *lifecycle.Machine, fn func() error) error { return m.Stop(fn) }, lifecycle.StateStopped},
		{"Close", func(m *lifecycle.Machine, fn func() error) error { return m.Close(fn) }, lifecycle.StateStopped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := lifecycle.NewMachine("lifecycletest.machine")
			if err := m.Init(nil); err != nil {
				t.Fatalf("Init: %v", err)
			}
			if err := m.Start(nil); err != nil {
				t.Fatalf("Start: %v", err)
			}

			entered := make(chan struct{})
			release := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				done <- tc.run(m, func() error {
					close(entered)
					<-release
					return nil
				})
			}()
			<-entered

			// The transition's work function is in progress: the new
			// state must already be visible...
			if got := m.State(); got != tc.want {
				t.Errorf("State during %s = %s, want %s", tc.name, got, tc.want)
			}
			// ...and Resizable must refuse without blocking on the
			// machine mutex the transition holds.
			probe := make(chan error, 1)
			go func() { probe <- m.Resizable() }()
			select {
			case err := <-probe:
				le, ok := lifecycle.IsLifecycle(err)
				if !ok {
					t.Fatalf("Resizable during %s: got %v, want *LifecycleError", tc.name, err)
				}
				if le.From != tc.want {
					t.Errorf("Resizable refusal From = %s, want %s", le.From, tc.want)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Resizable blocked on an in-progress transition")
			}

			close(release)
			if err := <-done; err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
	}
}
