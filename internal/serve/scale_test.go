package serve

import "testing"

// TestScalerPolicy pins the one grow/shrink rule: bounds 1..8 (unless the case raises min), grow at
// two queued calls per worker, shrink after three idle evaluations. Each
// evaluation is checked for the resize target it asks for.
func TestScalerPolicy(t *testing.T) {
	type eval struct {
		depth int64
		ask   int // the resize target the rule asks for, 0 for none
	}
	cases := []struct {
		name       string
		min, start int
		evals      []eval
	}{
		{
			name:  "grow doubles and caps at max",
			start: 3,
			evals: []eval{{depth: 6, ask: 6}, {depth: 12, ask: 8}, {depth: 99}},
		},
		{
			name:  "below the grow threshold nothing moves",
			start: 4,
			evals: []eval{{depth: 7}},
		},
		{
			name:  "shrink halves after exactly three idle evaluations",
			start: 8,
			evals: []eval{{depth: 8}, {depth: 0}, {depth: 3, ask: 4}, {depth: 0}},
		},
		{
			name:  "the band between the thresholds resets the idle count",
			start: 4,
			evals: []eval{{depth: 0}, {depth: 0}, {depth: 5}, {depth: 0}, {depth: 0}, {depth: 0, ask: 2}},
		},
		{
			name:  "shrink floors at min",
			min:   2,
			start: 3,
			evals: []eval{{}, {}, {ask: 2}, {}, {}, {}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := tc.start
			s := NewScaler(max(tc.min, 1), 8, 2, 3)
			for i, e := range tc.evals {
				ask := 0
				s.Eval(func() int { return cur }, e.depth, func(n int) error {
					ask, cur = n, n
					return nil
				})
				if ask != e.ask {
					t.Fatalf("eval %d: asked to resize to %d, want %d", i, ask, e.ask)
				}
			}
		})
	}
}
