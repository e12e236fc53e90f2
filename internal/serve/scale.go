package serve

import "sync"

// Scaler is the frontend's grow/shrink rule (see EnableElastic): double
// the worker set, capped at max, when the queued backlog reaches
// growDepth calls per live worker; halve it, floored at min, after
// shrinkIdle consecutive evaluations with at most one queued call per
// worker; a backlog between the two thresholds resets the idle count.
// It is wall-clock free — the frontend evaluates it after each executed
// batch, an event the virtual-time side already generates. Safe for
// concurrent use; evaluations are serialized, so a resize never races
// another decision.
type Scaler struct {
	mu                              sync.Mutex
	min, max, growDepth, shrinkIdle int
	idle                            int
}

// NewScaler returns the rule; callers validate the bounds
// (1 <= lo <= hi).
func NewScaler(lo, hi, growDepth, shrinkIdle int) *Scaler {
	return &Scaler{min: lo, max: hi, growDepth: growDepth, shrinkIdle: shrinkIdle}
}

// Eval runs one evaluation for the set workers reports (read under the
// rule's lock, so concurrent evaluations see each other's resizes) with
// depth queued calls. resize applies a decision; a refused one (a
// draining backend, a worker that failed to start) leaves the set as it
// was, and the next evaluation starts from the live count again.
func (s *Scaler) Eval(workers func() int, depth int64, resize func(int) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := workers()
	switch {
	case depth >= int64(s.growDepth)*int64(cur) && cur < s.max:
		s.idle = 0
		_ = resize(min(cur*2, s.max))
	case depth <= int64(cur):
		if s.idle++; s.idle >= s.shrinkIdle && cur > s.min {
			s.idle = 0
			_ = resize(max(cur/2, s.min))
		}
	default:
		s.idle = 0
	}
}
