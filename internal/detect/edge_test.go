package detect

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stack"
)

// total sums every mechanism's counter.
func total(c *Counters) (n uint64) {
	for _, k := range c.counts {
		n += k
	}
	return n
}

// TestUnknownMechanismAddIsIgnored pins the out-of-range contract: an
// Add with a mechanism beyond the counter array neither panics nor
// corrupts any in-range counter.
func TestUnknownMechanismAddIsIgnored(t *testing.T) {
	var c Counters
	c.Add(MechHeapCanary)
	before := total(&c)
	for _, m := range []Mechanism{MechSegfault + 1, Mechanism(100), Mechanism(255)} {
		c.Add(m)
		if c.Count(m) != 0 {
			t.Errorf("Count(%v) = %d after out-of-range Add", m, c.Count(m))
		}
	}
	if total(&c) != before {
		t.Errorf("out-of-range Add changed the total: %d -> %d", before, total(&c))
	}
	if c.Count(MechHeapCanary) != 1 {
		t.Error("in-range counter corrupted by out-of-range Add")
	}
}

// TestCounterSaturation exercises the counters in the uint64 extreme:
// heavy recording never wraps the total below a component counter, and a
// counter holding MaxUint64-adjacent values still sums without losing
// the other mechanisms (overflow of the sum is Go-defined wraparound;
// the per-mechanism counts must stay exact).
func TestCounterSaturation(t *testing.T) {
	var c Counters
	const n = 1 << 16
	for i := 0; i < n; i++ {
		c.Add(MechDomainViolation)
		c.Add(MechSegfault)
	}
	if c.Count(MechDomainViolation) != n || c.Count(MechSegfault) != n {
		t.Fatalf("counts %d/%d, want %d", c.Count(MechDomainViolation), c.Count(MechSegfault), n)
	}
	if total(&c) != 2*n {
		t.Errorf("total = %d, want %d", total(&c), 2*n)
	}
	if uint64(2*n) >= math.MaxUint64/2 {
		t.Fatal("test invariant broken")
	}
}

// TestRecordNonDetectionErrors: application errors, nil, and wrapped
// non-memory errors classify as MechNone and are never counted — the
// zero-request-window analogue for the detection ledger.
func TestRecordNonDetectionErrors(t *testing.T) {
	var c Counters
	for _, err := range []error{
		nil,
		errors.New("application error"),
		fmt.Errorf("wrapped: %w", errors.New("still not a detection")),
	} {
		m := Classify(err)
		if m != MechNone {
			t.Errorf("Classify(%v) = %v, want MechNone", err, m)
		}
		c.Add(m)
	}
	if total(&c) != 0 {
		t.Errorf("non-detections were counted: total %d", total(&c))
	}
}

// TestClassifyDeeplyWrapped: classification must see through arbitrary
// fmt.Errorf wrapping for every substrate error family.
func TestClassifyDeeplyWrapped(t *testing.T) {
	cases := []struct {
		err  error
		want Mechanism
	}{
		{fmt.Errorf("a: %w", fmt.Errorf("b: %w", stack.ErrStackSmash)), MechStackCanary},
		{fmt.Errorf("a: %w", fmt.Errorf("b: %w", alloc.ErrHeapCorruption)), MechHeapCanary},
		{fmt.Errorf("x: %w", &mem.Fault{Kind: mem.FaultPkey}), MechDomainViolation},
		{fmt.Errorf("x: %w", &mem.Fault{Kind: mem.FaultProt}), MechGuardPage},
		{fmt.Errorf("x: %w", &mem.Fault{Kind: mem.FaultUnmapped}), MechSegfault},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestUnknownFaultKindClassifiesAsNone: a mem.Fault with an
// out-of-range kind is not silently promoted to some mechanism.
func TestUnknownFaultKindClassifiesAsNone(t *testing.T) {
	if got := Classify(&mem.Fault{Kind: 99}); got != MechNone {
		t.Errorf("Classify(unknown fault kind) = %v, want MechNone", got)
	}
}

// TestUnknownMechanismString: the fallback rendering names the raw
// value instead of aliasing a real mechanism.
func TestUnknownMechanismString(t *testing.T) {
	s := Mechanism(42).String()
	if !strings.Contains(s, "42") {
		t.Errorf("Mechanism(42).String() = %q", s)
	}
}
