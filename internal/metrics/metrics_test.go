package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("zero-value histogram not empty")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.min != 1 || h.max != 100 {
		t.Errorf("min/max = %d/%d", h.min, h.max)
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	for i := int64(0); i < 10000; i++ {
		h.Observe(i)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := float64(h.Quantile(q))
		want := q * 10000
		if rel := math.Abs(got-want) / want; rel > 0.10 {
			t.Errorf("Quantile(%v) = %v, want ~%v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	h.Observe(42)
	if h.Quantile(0) != 42 || h.Quantile(1) != 42 || h.P50() != 42 {
		t.Error("single-sample quantiles should all be the sample")
	}
	h.Observe(-5) // clamped to 0
	if h.min != 0 {
		t.Errorf("negative clamp: min = %d", h.min)
	}
}

func TestObserveDuration(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Microsecond)
	if h.max != 3000 {
		t.Errorf("Max = %d, want 3000", h.max)
	}
}

// Property: quantiles are monotone and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		var h Histogram
		for _, v := range raw {
			h.Observe(int64(v % 1_000_000))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.min || v > h.max {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{3500 * time.Nanosecond, "3.50µs"},
		{2 * time.Millisecond, "2.00ms"},
		{3 * time.Second, "3.00s"},
		{2 * time.Minute, "2.0min"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Caption = "cap"
	tb.AddRow("alpha", 1)
	tb.AddRow("beta-long-name", 123.456)
	out := tb.String()
	for _, want := range []string{"Demo", "name", "alpha", "beta-long-name", "123.5", "cap"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x", "y")
	md := tb.Markdown()
	if !strings.Contains(md, "| a | b |") || !strings.Contains(md, "| x | y |") {
		t.Errorf("markdown:\n%s", md)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		5000:    "5000",
		42.42:   "42.4",
		3.14159: "3.142",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestP95Quantile(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i) * 100)
	}
	p95 := h.P95()
	// Log-linear buckets give <6.25% relative error around 9500.
	if p95 < 8800 || p95 > 10000 {
		t.Errorf("P95 = %d, want ~9500", p95)
	}
	if h.P50() > p95 || p95 > h.P99() {
		t.Errorf("quantiles not monotone: p50=%d p95=%d p99=%d", h.P50(), p95, h.P99())
	}
}

func TestBatchLatencySummaries(t *testing.T) {
	var b BatchLatency
	// Batches of 1 cost 1000 cycles/call; batches of 8 amortize to 300.
	for i := 0; i < 50; i++ {
		b.Observe(1, 1000)
		b.Observe(8, 8*300)
	}
	b.Observe(0, 999) // ignored
	rows := b.Summaries()
	if len(rows) != 2 {
		t.Fatalf("got %d summaries, want 2", len(rows))
	}
	if rows[0].Size != 1 || rows[1].Size != 8 {
		t.Fatalf("sizes = %d,%d, want ascending 1,8", rows[0].Size, rows[1].Size)
	}
	if rows[0].Batches != 50 || rows[0].Calls != 50 {
		t.Errorf("size 1: batches=%d calls=%d, want 50/50", rows[0].Batches, rows[0].Calls)
	}
	if rows[1].Batches != 50 || rows[1].Calls != 400 {
		t.Errorf("size 8: batches=%d calls=%d, want 50/400", rows[1].Batches, rows[1].Calls)
	}
	if !(rows[1].P50 < rows[0].P50) {
		t.Errorf("amortization not visible: p50(size 8)=%d !< p50(size 1)=%d", rows[1].P50, rows[0].P50)
	}
	if b.String() == "" || (&BatchLatency{}).String() != "(no batches observed)\n" {
		t.Error("String rendering broken")
	}
}

func TestBatchLatencyConcurrent(t *testing.T) {
	var b BatchLatency
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Observe(1+g%4, uint64(1000+i))
			}
		}(g)
	}
	wg.Wait()
	var batches uint64
	for _, r := range b.Summaries() {
		batches += r.Batches
	}
	if batches != 1600 {
		t.Errorf("recorded %d batches, want 1600", batches)
	}
}
