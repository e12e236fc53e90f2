package campaign

import (
	"fmt"
)

// This file adds the elastic-resize dimension to the campaign engine:
// the canonical grow/shrink schedule the wave loop applies to a
// resizable executor mid-run when the resize oracle (oracle.go
// CheckResize) replays a scenario. The engine's dispatch stream stays
// keyed by the configured worker count — a scheduled worker index is an
// affinity key, not a physical slot — so every PRNG draw, request
// placement label, and survivor-state transition is identical whatever
// the live worker count happens to be. That is the resize-invisibility
// argument (DESIGN.md §13), and the oracle makes it a regression test.

// ResizableExecutor is implemented by executors whose worker set can
// grow and shrink mid-scenario (the pool backend). Scheduled worker
// indices keep their meaning across resizes: they map onto the live
// set modulo its size.
type ResizableExecutor interface {
	Executor
	// Resize grows or shrinks the executor to n live workers.
	Resize(n int) error
	// Workers returns the current live worker count.
	Workers() int
}

// resizeStep is one scheduled resize: before request at executes, the
// live worker set becomes workers.
type resizeStep struct{ at, workers int }

// resizer walks the canonical schedule over one scenario's n requests
// as the wave loop advances: start at 1 worker, grow to 4 at the first
// quarter, to 8 at the half, and shrink to 2 at the last quarter — the
// workers 1→4→8→2 sequence the resize oracle pins. A nil resizer is a
// fixed-size run and does nothing.
type resizer struct {
	rex   ResizableExecutor
	steps []resizeStep
	next  int
}

// newResizer applies the initial resize and lays out the steps for n
// requests. Below three requests some quarters coincide; only the first
// step at each index is kept, so for every n ≥ 1 each step fires at a
// distinct request inside the run.
func newResizer(ex Executor, n int) (*resizer, error) {
	rex, ok := ex.(ResizableExecutor)
	if !ok {
		return nil, fmt.Errorf("campaign: %T does not support resizing", ex)
	}
	if err := rex.Resize(1); err != nil {
		return nil, fmt.Errorf("campaign: initial resize to 1: %w", err)
	}
	r := &resizer{rex: rex}
	for _, s := range []resizeStep{{n / 4, 4}, {n / 2, 8}, {3 * n / 4, 2}} {
		if len(r.steps) == 0 || r.steps[len(r.steps)-1].at < s.at {
			r.steps = append(r.steps, s)
		}
	}
	return r, nil
}

// before applies every step scheduled at or before request index i.
func (r *resizer) before(i int) error {
	if r == nil {
		return nil
	}
	for ; r.next < len(r.steps) && r.steps[r.next].at <= i; r.next++ {
		s := r.steps[r.next]
		if err := r.rex.Resize(s.workers); err != nil {
			return fmt.Errorf("campaign: resize to %d before request %d: %w", s.workers, s.at, err)
		}
	}
	return nil
}

// cut truncates a wave ending at end to the next unapplied step, so a
// resize always lands between waves, never inside one.
func (r *resizer) cut(end int) int {
	if r != nil && r.next < len(r.steps) && r.steps[r.next].at < end {
		return r.steps[r.next].at
	}
	return end
}
