package metrics

import (
	"fmt"
	"math"
	"time"
)

// Histogram is a log-linear histogram of non-negative int64 samples
// (typically nanoseconds or cycles). It keeps 64 logarithmic major
// buckets with 16 linear sub-buckets each, giving <6.25% relative error —
// enough for percentile reporting. The zero value is ready to use.
type Histogram struct {
	counts [64 * subBuckets]uint64
	n      uint64
	min    int64
	max    int64
}

const subBuckets = 16

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	// Major bucket = floor(log2(v)); sub-bucket from the next 4 bits.
	msb := 63 - int(leadingZeros(uint64(v)))
	sub := int((uint64(v) >> (uint(msb) - 4)) & (subBuckets - 1))
	idx := msb*subBuckets + sub
	if idx >= len([64 * subBuckets]uint64{}) {
		idx = len([64 * subBuckets]uint64{}) - 1
	}
	return idx
}

func leadingZeros(x uint64) uint {
	if x == 0 {
		return 64
	}
	var n uint
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketLow returns a representative (lower-bound) value for bucket idx.
func bucketLow(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	msb := idx / subBuckets
	sub := idx % subBuckets
	return (1 << uint(msb)) | (int64(sub) << uint(msb-4))
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.n++
}

// ObserveDuration records a duration sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P99 is the 0.99-quantile.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// FormatDuration renders a duration with paper-style units (µs, ms, s,
// min) and 3 significant digits.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	}
}
