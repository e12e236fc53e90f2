package serve

import "sync"

// ElasticStats reports an elastic controller's scaling activity.
type ElasticStats struct {
	// Grown and Shrunk count resize operations in each direction.
	Grown, Shrunk uint64
	// MaxWorkers is the highest worker count the controller reached;
	// Workers is the current one.
	MaxWorkers, Workers int
}

// Scaler is the one grow/shrink rule every elastic controller in the
// repository applies (the serving frontends per executed batch, the
// root AsyncPool from its kick goroutine): double the worker set,
// capped at max, when the queued backlog reaches growDepth calls per
// live worker; halve it, floored at min, after shrinkIdle consecutive
// evaluations with at most one queued call per worker; a backlog
// between the two thresholds resets the idle count. It is wall-clock
// free — callers evaluate on events the virtual-time side already
// generates. Safe for concurrent use; evaluations are serialized, so a
// resize never races another decision.
type Scaler struct {
	mu                              sync.Mutex
	min, max, growDepth, shrinkIdle int
	idle                            int
	st                              ElasticStats
}

// NewScaler returns the rule for a worker set currently at cur workers;
// callers validate the bounds (1 <= lo <= hi).
func NewScaler(lo, hi, growDepth, shrinkIdle, cur int) *Scaler {
	return &Scaler{min: lo, max: hi, growDepth: growDepth, shrinkIdle: shrinkIdle, st: ElasticStats{MaxWorkers: cur}}
}

// Eval runs one evaluation for the set workers reports (read under the
// rule's lock, so concurrent evaluations see each other's resizes) with
// depth queued calls; pressure forces the grow branch regardless of
// depth (the AsyncPool's latency signal). resize applies a decision,
// and only a successful resize is counted.
func (s *Scaler) Eval(workers func() int, depth int64, pressure bool, resize func(int) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := workers()
	switch {
	case (pressure || depth >= int64(s.growDepth)*int64(cur)) && cur < s.max:
		s.idle = 0
		next := min(cur*2, s.max)
		if resize(next) == nil {
			s.st.Grown++
			s.st.MaxWorkers = max(s.st.MaxWorkers, next)
		}
	case depth <= int64(cur):
		if s.idle++; s.idle >= s.shrinkIdle && cur > s.min {
			s.idle = 0
			if resize(max(cur/2, s.min)) == nil {
				s.st.Shrunk++
			}
		}
	default:
		s.idle = 0
	}
}

// Stats returns the counters, reporting cur as the current worker count.
func (s *Scaler) Stats(cur int) ElasticStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Workers = cur
	return st
}
