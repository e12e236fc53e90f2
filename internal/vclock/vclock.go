package vclock

import (
	"fmt"
	"math"
	"time"
)

// DefaultCPUHz is the simulated core frequency. 3 GHz keeps the
// cycles-to-nanoseconds conversion easy to reason about (3 cycles = 1 ns)
// and is close to the Xeon parts used in the SDRaD evaluation.
const DefaultCPUHz = 3_000_000_000

// CostModel holds the cycle costs of the primitive operations of the
// simulated machine. The defaults follow published microbenchmarks:
// WRPKRU latency from Park et al. (libmpk, ATC'19), context-switch and
// syscall costs from classic lmbench-style measurements.
type CostModel struct {
	// CPUHz is the simulated core frequency used to convert cycles to time.
	CPUHz uint64

	// MemLoad and MemStore are per-access costs for a hit in the simulated
	// cache hierarchy (we model a flat cost; the experiments compare
	// mechanisms, not cache behaviour).
	MemLoad  uint64
	MemStore uint64

	// MemPerByte is the additional per-byte cost of bulk copies
	// (memcpy-style transfers, serialization buffers).
	MemPerByte uint64

	// WRPKRU and RDPKRU are the costs of writing/reading the protection-key
	// rights register. Intel measures WRPKRU at ~23 cycles; reads are a few
	// cycles.
	WRPKRU uint64
	RDPKRU uint64

	// PkeyAlloc etc. are syscall-path costs for key management and page
	// tagging (pkey_alloc(2), pkey_free(2), pkey_mprotect(2)).
	PkeyAlloc    uint64
	PkeyFree     uint64
	PkeyMprotect uint64

	// PageMap and PageUnmap model mmap/munmap of a single page.
	PageMap   uint64
	PageUnmap uint64

	// PageZero is the cost of zeroing one 4 KiB page (used by discard).
	PageZero uint64

	// Syscall is the bare user-kernel-user round trip.
	Syscall uint64

	// ContextSwitch is a full process context switch (scheduler + TLB
	// effects), used by the process-isolation baseline.
	ContextSwitch uint64

	// SignalDeliver is the cost of delivering a signal to a user handler
	// (SDRaD's fault path enters via SIGSEGV).
	SignalDeliver uint64

	// SnapshotCtx and RestoreCtx model setjmp/longjmp-like register-file
	// save/restore.
	SnapshotCtx uint64
	RestoreCtx  uint64

	// ForkExec is the cost of fork+exec of a fresh process, excluding
	// application warm-up (used by the restart baselines).
	ForkExec uint64

	// ContainerStart is the additional runtime setup for a container
	// restart (namespace + cgroup + image layer setup), excluding warm-up.
	ContainerStart uint64

	// WarmupBytesPerSec is the rate at which a restarted service can
	// repopulate state (disk/network-bound), in bytes per second of
	// virtual time. 10 GB at ~85 MB/s gives the paper's ≈2 min restart.
	WarmupBytesPerSec uint64
}

// DefaultCostModel returns the calibrated cost model described in
// DESIGN.md §2. Callers may copy and modify it.
func DefaultCostModel() CostModel {
	return CostModel{
		CPUHz:             DefaultCPUHz,
		MemLoad:           4,
		MemStore:          4,
		MemPerByte:        1,
		WRPKRU:            23,
		RDPKRU:            2,
		PkeyAlloc:         900,
		PkeyFree:          700,
		PkeyMprotect:      1_200,
		PageMap:           1_800,
		PageUnmap:         1_500,
		PageZero:          600,
		Syscall:           4_500,
		ContextSwitch:     9_000,
		SignalDeliver:     6_000,
		SnapshotCtx:       60,
		RestoreCtx:        60,
		ForkExec:          1_500_000,
		ContainerStart:    900_000_000,
		WarmupBytesPerSec: 85_000_000,
	}
}

// Clock accumulates virtual cycles. The zero value is unusable; use New.
// Clock is not safe for concurrent use: each simulated execution context
// owns its own Clock (matching a single hardware thread).
type Clock struct {
	model  CostModel
	cycles uint64
}

// New returns a Clock at cycle zero using the given cost model.
func New(model CostModel) *Clock {
	if model.CPUHz == 0 {
		model.CPUHz = DefaultCPUHz
	}
	return &Clock{model: model}
}

// Model returns the clock's cost model.
func (c *Clock) Model() CostModel { return c.model }

// Advance charges n cycles.
func (c *Clock) Advance(n uint64) { c.cycles += n }

// AdvanceTime charges the cycle equivalent of d.
func (c *Clock) AdvanceTime(d time.Duration) {
	c.cycles += DurationToCycles(d, c.model.CPUHz)
}

// Cycles returns the total cycles charged so far.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Now returns the virtual time elapsed since cycle zero.
func (c *Clock) Now() time.Duration { return CyclesToDuration(c.cycles, c.model.CPUHz) }

// Since returns the virtual time elapsed since the given earlier cycle
// count (typically captured with Cycles).
func (c *Clock) Since(start uint64) time.Duration {
	if c.cycles < start {
		return 0
	}
	return CyclesToDuration(c.cycles-start, c.model.CPUHz)
}

// DeadlineQuantum is the granularity to which wall-clock deadlines are
// rounded when mapped to virtual-cycle budgets. Rounding the remaining
// wall time *up* to the next quantum makes the derived budget — and
// therefore the virtual cycle at which a budgeted run is preempted —
// reproducible across runs despite host scheduling jitter: any capture
// point within the same 100 ms band yields the same budget.
const DeadlineQuantum = 100 * time.Millisecond

// maxBudgetWindow caps the wall-time horizon a deadline can impose as a
// cycle budget: anything further out is effectively unlimited for a
// single domain run, and capping it keeps the quantization and
// cycles-conversion arithmetic far away from int64/uint64 overflow.
const maxBudgetWindow = 24 * time.Hour

// CyclesUntilDeadline converts the wall time remaining until deadline
// into a virtual-cycle budget at hz, quantized to DeadlineQuantum. An
// already-expired deadline yields a 1-cycle budget (which preempts a run
// at its first simulated-machine operation); a deadline beyond
// maxBudgetWindow yields the saturating "effectively unlimited" budget.
// The result is never 0, so callers can use 0 to mean "no budget". This
// is the only place the library consults the wall clock: everything
// downstream of the returned budget is deterministic virtual time.
func CyclesUntilDeadline(deadline time.Time, hz uint64) uint64 {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return 1
	}
	if remaining >= maxBudgetWindow {
		return math.MaxUint64
	}
	quanta := (remaining + DeadlineQuantum - 1) / DeadlineQuantum
	return DurationToCycles(quanta*DeadlineQuantum, hz)
}

// CyclesToDuration converts a cycle count at hz to a duration. The
// computation is done in integer arithmetic (split into whole seconds and
// remainder) so that exact cycle counts convert exactly.
func CyclesToDuration(cycles, hz uint64) time.Duration {
	if hz == 0 {
		hz = DefaultCPUHz
	}
	secs := cycles / hz
	rem := cycles % hz
	return time.Duration(secs)*time.Second + time.Duration(rem*1e9/hz)
}

// DurationToCycles converts a duration to cycles at hz using exact
// integer arithmetic.
func DurationToCycles(d time.Duration, hz uint64) uint64 {
	if hz == 0 {
		hz = DefaultCPUHz
	}
	if d <= 0 {
		return 0
	}
	ns := uint64(d.Nanoseconds())
	secs := ns / 1e9
	rem := ns % 1e9
	return secs*hz + rem*hz/1e9
}

// String implements fmt.Stringer for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("vclock{cycles=%d, t=%s}", c.cycles, c.Now())
}
