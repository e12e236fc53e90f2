package serve

import (
	"errors"
	"testing"
)

// TestScalerPolicy pins the one grow/shrink rule: bounds 1..8 (unless the case raises min), grow at
// two queued calls per worker, shrink after three idle evaluations.
func TestScalerPolicy(t *testing.T) {
	type eval struct {
		depth    int64
		pressure bool
		fail     bool // the resize the rule asks for is refused
		want     int  // worker count afterwards
	}
	cases := []struct {
		name          string
		min, start    int
		evals         []eval
		grown, shrunk uint64
		maxWorkers    int
	}{
		{
			name:  "grow doubles and caps at max",
			start: 3,
			evals: []eval{{depth: 6, want: 6}, {depth: 12, want: 8}, {depth: 99, want: 8}},
			grown: 2, maxWorkers: 8,
		},
		{
			name:  "pressure grows without depth",
			start: 2,
			evals: []eval{{pressure: true, want: 4}},
			grown: 1, maxWorkers: 4,
		},
		{
			name:       "below the grow threshold nothing moves",
			start:      4,
			evals:      []eval{{depth: 7, want: 4}},
			maxWorkers: 4,
		},
		{
			name:   "shrink halves after exactly three idle evaluations",
			start:  8,
			evals:  []eval{{depth: 8, want: 8}, {depth: 0, want: 8}, {depth: 3, want: 4}, {depth: 0, want: 4}},
			shrunk: 1, maxWorkers: 8,
		},
		{
			name:   "the band between the thresholds resets the idle count",
			start:  4,
			evals:  []eval{{depth: 0, want: 4}, {depth: 0, want: 4}, {depth: 5, want: 4}, {depth: 0, want: 4}, {depth: 0, want: 4}, {depth: 0, want: 2}},
			shrunk: 1, maxWorkers: 4,
		},
		{
			name:   "shrink floors at min",
			min:    2,
			start:  3,
			evals:  []eval{{want: 3}, {want: 3}, {want: 2}, {want: 2}, {want: 2}, {want: 2}},
			shrunk: 1, maxWorkers: 3,
		},
		{
			name:       "a failed resize bumps no counter",
			start:      2,
			evals:      []eval{{depth: 4, fail: true, want: 2}, {want: 2}, {want: 2}, {fail: true, want: 2}},
			maxWorkers: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := tc.start
			s := NewScaler(max(tc.min, 1), 8, 2, 3, cur)
			for i, e := range tc.evals {
				s.Eval(func() int { return cur }, e.depth, e.pressure, func(n int) error {
					if e.fail {
						return errors.New("refused")
					}
					cur = n
					return nil
				})
				if cur != e.want {
					t.Fatalf("eval %d: workers = %d, want %d", i, cur, e.want)
				}
			}
			want := ElasticStats{Grown: tc.grown, Shrunk: tc.shrunk, MaxWorkers: tc.maxWorkers, Workers: cur}
			if got := s.Stats(cur); got != want {
				t.Fatalf("stats = %+v, want %+v", got, want)
			}
		})
	}
}
