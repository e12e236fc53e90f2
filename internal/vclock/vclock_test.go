package vclock

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultCostModelSanity(t *testing.T) {
	m := DefaultCostModel()
	if m.CPUHz != DefaultCPUHz {
		t.Fatalf("CPUHz = %d, want %d", m.CPUHz, DefaultCPUHz)
	}
	// The ordering of costs is what the paper's argument depends on:
	// domain switch (2x WRPKRU) << syscall << context switch << fork/exec.
	if 2*m.WRPKRU >= m.Syscall {
		t.Errorf("2*WRPKRU (%d) should be well below Syscall (%d)", 2*m.WRPKRU, m.Syscall)
	}
	if m.Syscall >= m.ContextSwitch {
		t.Errorf("Syscall (%d) should be below ContextSwitch (%d)", m.Syscall, m.ContextSwitch)
	}
	if m.ContextSwitch >= m.ForkExec {
		t.Errorf("ContextSwitch (%d) should be far below ForkExec (%d)", m.ContextSwitch, m.ForkExec)
	}
}

func TestTenGBWarmupIsRoughlyTwoMinutes(t *testing.T) {
	// The paper reports ~2 min to restart memcached with a 10 GB database.
	m := DefaultCostModel()
	const tenGB = 10_000_000_000
	secs := float64(tenGB) / float64(m.WarmupBytesPerSec)
	if secs < 90 || secs > 150 {
		t.Errorf("10GB warm-up = %.1fs, want within [90s, 150s] (~2 min)", secs)
	}
}

func TestClockAdvance(t *testing.T) {
	c := New(DefaultCostModel())
	if c.Cycles() != 0 {
		t.Fatalf("new clock cycles = %d, want 0", c.Cycles())
	}
	c.Advance(3_000_000_000) // one second at 3 GHz
	if got := c.Now(); got != time.Second {
		t.Errorf("Now() = %v, want 1s", got)
	}
	start := c.Cycles()
	c.Advance(3_000) // 1 µs
	if got := c.Since(start); got != time.Microsecond {
		t.Errorf("Since = %v, want 1µs", got)
	}
}

func TestClockAdvanceTime(t *testing.T) {
	c := New(DefaultCostModel())
	c.AdvanceTime(2 * time.Millisecond)
	if got := c.Cycles(); got != 6_000_000 {
		t.Errorf("cycles = %d, want 6e6", got)
	}
	c.AdvanceTime(-time.Second) // negative durations are ignored
	if got := c.Cycles(); got != 6_000_000 {
		t.Errorf("cycles after negative advance = %d, want unchanged", got)
	}
}

func TestSinceBeforeStart(t *testing.T) {
	c := New(DefaultCostModel())
	c.Advance(10)
	if got := c.Since(100); got != 0 {
		t.Errorf("Since(future) = %v, want 0", got)
	}
}

func TestZeroHzFallsBackToDefault(t *testing.T) {
	c := New(CostModel{})
	if c.Model().CPUHz != DefaultCPUHz {
		t.Errorf("zero CPUHz not defaulted: %d", c.Model().CPUHz)
	}
	if d := CyclesToDuration(DefaultCPUHz, 0); d != time.Second {
		t.Errorf("CyclesToDuration with hz=0 = %v, want 1s", d)
	}
	if n := DurationToCycles(time.Second, 0); n != DefaultCPUHz {
		t.Errorf("DurationToCycles with hz=0 = %d, want %d", n, DefaultCPUHz)
	}
}

func TestDurationCyclesRoundTrip(t *testing.T) {
	// Property: converting cycles->duration->cycles at the default
	// frequency is lossless for multiples of 3 cycles (1 ns granularity).
	f := func(n uint32) bool {
		cycles := uint64(n) * 3
		d := CyclesToDuration(cycles, DefaultCPUHz)
		return DurationToCycles(d, DefaultCPUHz) == cycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationToCyclesNegative(t *testing.T) {
	if n := DurationToCycles(-time.Second, DefaultCPUHz); n != 0 {
		t.Errorf("negative duration = %d cycles, want 0", n)
	}
}

func TestStringContainsCycleCount(t *testing.T) {
	c := New(DefaultCostModel())
	c.Advance(7)
	if s := c.String(); s == "" {
		t.Error("String() empty")
	}
}

func TestCyclesUntilDeadlineNeverZeroAndSaturates(t *testing.T) {
	// Expired deadline: minimal non-zero budget.
	if got := CyclesUntilDeadline(time.Now().Add(-time.Second), DefaultCPUHz); got != 1 {
		t.Errorf("expired deadline budget = %d, want 1", got)
	}
	// Near deadline: quantized up, never 0.
	if got := CyclesUntilDeadline(time.Now().Add(time.Millisecond), DefaultCPUHz); got == 0 || got < DurationToCycles(DeadlineQuantum, DefaultCPUHz) {
		t.Errorf("near deadline budget = %d, want >= one quantum", got)
	}
	// Far-future deadline: saturates instead of overflowing to 0 (which
	// would silently erase an explicit WithCycleBudget in the min-merge).
	far := time.Now().Add(100 * 365 * 24 * time.Hour)
	if got := CyclesUntilDeadline(far, DefaultCPUHz); got != math.MaxUint64 {
		t.Errorf("far-future deadline budget = %d, want MaxUint64", got)
	}
}
