package lifecycle_test

import (
	"testing"
	"time"

	"repro/internal/lifecycle"
)

// TestStateDuringTransition pins the lock-freedom contract: while a
// Drain/Close work function is still running (the machine mutex is
// held for the whole transition), State already reports the new state.
// A work function that waits for a goroutine which reads State — a
// health probe, a serve loop deciding whether to expire its reads —
// would otherwise deadlock: the transition waiting on the goroutine and
// the goroutine on the transition's mutex.
func TestStateDuringTransition(t *testing.T) {
	cases := []struct {
		name string
		run  func(m *lifecycle.Machine, fn func() error) error
		want lifecycle.State
	}{
		{"Drain", func(m *lifecycle.Machine, fn func() error) error { return m.Drain(fn) }, lifecycle.StateDraining},
		{"Close", func(m *lifecycle.Machine, fn func() error) error { return m.Close(fn) }, lifecycle.StateStopped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := lifecycle.NewMachine("lifecycletest.machine")
			// The work function waits for a State read on another
			// goroutine; a State that blocked on the machine mutex would
			// never answer.
			err := tc.run(m, func() error {
				seen := make(chan lifecycle.State, 1)
				go func() { seen <- m.State() }()
				select {
				case got := <-seen:
					if got != tc.want {
						t.Errorf("State during %s = %s, want %s", tc.name, got, tc.want)
					}
				case <-time.After(30 * time.Second):
					t.Errorf("State blocked on an in-progress %s", tc.name)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
	}
}
