package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least q of the
// samples at or below it.
func percentile(sorted []uint32, q float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tails are the percentiles a run may report, lowest first.
var tails = []struct {
	q     float64
	label string
}{{0.50, "p50"}, {0.90, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}, {0.9999, "p99.99"}}

// pickTail returns the highest percentile that still has at least ten
// of n samples beyond it; a higher one would be set by a handful of
// outliers. With fewer than 20 samples there is none.
func pickTail(n int) (float64, string) {
	q, label := 0.0, ""
	for _, t := range tails {
		beyond := n - int(math.Ceil(t.q*float64(n)))
		if beyond >= 10 {
			q, label = t.q, t.label
		}
	}
	return q, label
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), 0 for none. xs is left in its order.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread summarises repeated host timings: their median, and the
// distance between the fastest and slowest as a share of the median.
type spread struct {
	median, min, max float64
}

func summarise(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := spread{median: median(xs), min: xs[0], max: xs[0]}
	for _, x := range xs {
		s.min, s.max = math.Min(s.min, x), math.Max(s.max, x)
	}
	return s
}

func (s spread) rel() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.max - s.min) / s.median
}
