package sdrad_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sdrad "repro"
	"repro/internal/core"
)

// slowCostModel returns a cost model with a 1 MHz simulated core, so
// budget tests preempt after a small amount of simulated work.
func slowCostModel() sdrad.CostModel {
	m := sdrad.DefaultCostModel()
	m.CPUHz = 1_000_000
	return m
}

// runawayUntilPreempted runs an unbounded store loop under ctx on a
// fresh supervisor and returns the resulting BudgetError and the number
// of loop iterations that executed.
func runawayUntilPreempted(t *testing.T, ctx context.Context, opts ...sdrad.RunOption) (*sdrad.BudgetError, int) {
	t.Helper()
	sup := sdrad.New(sdrad.WithCostModel(slowCostModel()))
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	iters := 0
	payload := make([]byte, 4096)
	err = dom.Do(ctx, func(c *sdrad.Ctx) error {
		p := c.MustAlloc(len(payload))
		for { // runaway: never returns on its own
			c.MustStore(p, payload)
			iters++
		}
	}, opts...)
	b, ok := sdrad.IsBudget(err)
	if !ok {
		t.Fatalf("runaway run returned %v, want *BudgetError", err)
	}
	return b, iters
}

// TestDoDeadlineDeterministicBudget is the acceptance test for deadline
// mapping: a context deadline aborts a runaway domain run with a
// *BudgetError at the same virtual cycle count on every run. The wall
// deadline is quantized (vclock.DeadlineQuantum) before it becomes a
// cycle budget, so host scheduling jitter cannot shift the preemption
// point.
func TestDoDeadlineDeterministicBudget(t *testing.T) {
	run := func() (*sdrad.BudgetError, int) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		return runawayUntilPreempted(t, ctx)
	}
	b1, iters1 := run()
	b2, iters2 := run()

	if b1.Used == 0 || b1.Budget == 0 {
		t.Fatalf("BudgetError not populated: %+v", b1)
	}
	if b1.Used < b1.Budget {
		t.Errorf("Used %d < Budget %d: preempted early", b1.Used, b1.Budget)
	}
	if b1.Budget != b2.Budget {
		t.Errorf("budget differs across runs: %d vs %d", b1.Budget, b2.Budget)
	}
	if b1.Used != b2.Used {
		t.Errorf("preemption cycle differs across runs: %d vs %d", b1.Used, b2.Used)
	}
	if iters1 != iters2 {
		t.Errorf("iterations differ across runs: %d vs %d", iters1, iters2)
	}
}

func TestDoExplicitCycleBudget(t *testing.T) {
	const budget = 500_000
	b, _ := runawayUntilPreempted(t, context.Background(), sdrad.WithCycleBudget(budget))
	if b.Budget != budget {
		t.Errorf("Budget = %d, want %d", b.Budget, budget)
	}
	if b.Used < budget {
		t.Errorf("Used = %d, want >= %d", b.Used, budget)
	}
}

// TestDoCycleBudgetTightensDeadline: with both a deadline and an
// explicit budget, the tighter one applies.
func TestDoCycleBudgetTightensDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	const budget = 250_000
	b, _ := runawayUntilPreempted(t, ctx, sdrad.WithCycleBudget(budget))
	if b.Budget != budget {
		t.Errorf("Budget = %d, want explicit %d to win over the deadline", b.Budget, budget)
	}
}

// TestDoBudgetRewindsAndDiscards: a preempted domain is rewound and
// discarded like a violated one — its memory is pristine afterwards and
// the event is accounted as a preemption, not a violation.
func TestDoBudgetRewindsAndDiscards(t *testing.T) {
	sup := sdrad.New(sdrad.WithCostModel(slowCostModel()))
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	var addr sdrad.Addr
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		addr = c.MustAlloc(64)
		c.MustStore(addr, []byte("sticky"))
		for {
			c.MustStore(addr, make([]byte, 64))
		}
	}, sdrad.WithCycleBudget(200_000))
	if _, ok := sdrad.IsBudget(err); !ok {
		t.Fatalf("err = %v, want *BudgetError", err)
	}

	// The allocation was discarded: the same address is free again, so a
	// fresh alloc reuses the heap from its pristine state.
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		if p != addr {
			t.Errorf("post-rewind alloc at %v, want pristine heap reusing %v", p, addr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	st, err := dom.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Preemptions != 1 || st.Violations != 0 || st.Rewinds != 1 {
		t.Errorf("stats = %+v, want 1 preemption, 0 violations, 1 rewind", st)
	}
	if n := len(sup.DetectionCounts()); n != 0 {
		t.Errorf("preemption counted as a detection: %v", sup.DetectionCounts())
	}
}

func TestDoCancelledContext(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err = dom.Do(ctx, func(c *sdrad.Ctx) error { ran = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("fn ran despite cancelled context")
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	attempts := 0
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		attempts++
		if attempts <= 2 {
			c.MustStore64(0xdead0000, 1) // violate on the first two attempts
		}
		return nil
	}, sdrad.WithRetries(2))
	if err != nil {
		t.Fatalf("Do = %v, want success on third attempt", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3", attempts)
	}
}

func TestDoRetriesExhaustedFallback(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	attempts := 0
	fallbackErr := errors.New("alternate action result")
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		attempts++
		c.MustStore64(0xdead0000, 1)
		return nil
	},
		sdrad.WithRetries(2),
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			if v == nil {
				t.Error("fallback got nil violation")
			}
			return fallbackErr
		}))
	if !errors.Is(err, fallbackErr) {
		t.Errorf("err = %v, want fallback result", err)
	}
	if attempts != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries) before the fallback", attempts)
	}
}

// TestPoolDoWorkerAffinityWithFallback proves the satellite requirement:
// affinity and the alternate action compose. Every attempt of a pinned
// call lands on the chosen worker, and when the run keeps violating, the
// fallback fires while the violation stays accounted to that worker.
func TestPoolDoWorkerAffinityWithFallback(t *testing.T) {
	pool, err := sdrad.NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	const pinned = 2
	fellBack := false
	err = pool.Do(context.Background(), func(c *sdrad.Ctx) error {
		c.MustStore64(0xdead0000, 1) // violates on every attempt
		return nil
	},
		sdrad.WithWorker(pinned),
		sdrad.WithRetries(2),
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			fellBack = true
			return nil
		}))
	if err != nil {
		t.Fatalf("Do = %v, want fallback to absorb the violation", err)
	}
	if !fellBack {
		t.Error("fallback did not run")
	}

	// All three attempts — and therefore all three violations — must be
	// on the pinned worker; the others never saw a request.
	perWorker := pool.WorkerDetectionCounts()
	for i, counts := range perWorker {
		var total uint64
		for _, n := range counts {
			total += n
		}
		want := uint64(0)
		if i == pinned {
			want = 3
		}
		if total != want {
			t.Errorf("worker %d detections = %d, want %d", i, total, want)
		}
	}
	if reqs := pool.Stats().Requests; reqs[pinned] != 3 {
		t.Errorf("pinned worker served %d requests, want 3 (dispatch leaked off-worker: %v)", reqs[pinned], reqs)
	}
}

// TestDoRetryIntoQuarantineStillFallsBack: when a retry finds the
// domain quarantined (its violation budget was exhausted by the very
// violations being retried), the run's outcome is still the violation,
// so the alternate action must fire rather than surfacing a bare
// ErrQuarantined.
func TestDoRetryIntoQuarantineStillFallsBack(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()
	if err := sup.System().SetViolationBudget(core.UDI(dom.UDI()), 1); err != nil {
		t.Fatal(err)
	}

	fellBack := false
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		c.MustStore64(0xdead0000, 1) // violates; quarantines after 1
		return nil
	},
		sdrad.WithRetries(3),
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			fellBack = true
			return nil
		}))
	if err != nil {
		t.Fatalf("Do = %v, want the fallback to absorb the quarantined violation", err)
	}
	if !fellBack {
		t.Error("fallback did not run after retry hit quarantine")
	}
}

// TestDoForeignViolationNotRetriedOrAbsorbed: a *ViolationError of a
// DIFFERENT domain returned by fn is an application error — the entered
// domain was never rewound — so it must pass through untouched: no
// retries against dirty state, no fallback under a false contract.
func TestDoForeignViolationNotRetriedOrAbsorbed(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	foreign := &sdrad.ViolationError{UDI: 99}
	attempts := 0
	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		attempts++
		return foreign
	},
		sdrad.WithRetries(3),
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			t.Error("fallback ran for a foreign domain's violation")
			return nil
		}))
	if v, ok := sdrad.IsViolation(err); !ok || v != foreign {
		t.Errorf("err = %v, want the foreign violation passed through", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (no retries for foreign violations)", attempts)
	}
}

// TestDoHugeCycleBudgetDoesNotOverflow: a budget near 2^64 means
// "effectively unlimited", not "wrapped past the clock, preempt at the
// first operation".
func TestDoHugeCycleBudgetDoesNotOverflow(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	err = dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		c.MustStore(p, make([]byte, 64))
		return nil
	}, sdrad.WithCycleBudget(math.MaxUint64))
	if err != nil {
		t.Fatalf("huge budget preempted a tiny run: %v", err)
	}
}

// TestPoolDoForeignRewindErrorStillDiscards: when fn propagates a
// *BudgetError or *ViolationError that belongs to a DIFFERENT domain
// (e.g. a nested or foreign domain that was rewound inside fn), the
// pool worker's own domain was NOT rewound — discard-on-return must
// still scrub it so no state leaks to the next caller.
func TestPoolDoForeignRewindErrorStillDiscards(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	var first sdrad.Addr
	foreign := &sdrad.BudgetError{UDI: 99, Budget: 1, Used: 2}
	err = pool.Do(context.Background(), func(c *sdrad.Ctx) error {
		first = c.MustAlloc(64)
		c.MustStore(first, []byte("worker-domain state"))
		return foreign // a foreign domain's rewind error, passed through
	})
	if b, ok := sdrad.IsBudget(err); !ok || b != foreign {
		t.Fatalf("err = %v, want the propagated foreign BudgetError", err)
	}

	// The worker domain must have been discarded on return: a fresh call
	// re-allocates from the pristine heap base.
	err = pool.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		if p != first {
			t.Errorf("alloc at %v, want pristine heap reusing %v (discard skipped)", p, first)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPoolDoHammer is the -race hammer over one Pool: concurrent Do
// calls mixing cancellation, deadlines, retries, affinity, budget
// preemption, and violations.
func TestPoolDoHammer(t *testing.T) {
	pool, err := sdrad.NewPool(4, sdrad.WithCostModel(slowCostModel()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	goroutines, iters := 8, 60
	if testing.Short() {
		goroutines, iters = 4, 20
	}
	var wg sync.WaitGroup
	var clean, contained, preempted, cancelled atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := make([]byte, 512)
			for i := 0; i < iters; i++ {
				ctx := context.Background()
				var opts []sdrad.RunOption
				mode := i % 4
				switch mode {
				case 1:
					opts = append(opts, sdrad.WithWorker(g), sdrad.WithRetries(1))
				case 2:
					opts = append(opts, sdrad.WithCycleBudget(10_000))
				case 3:
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				}
				err := pool.Do(ctx, func(c *sdrad.Ctx) error {
					p := c.MustAlloc(len(payload))
					c.MustStore(p, payload)
					if mode == 1 && i%8 == 1 {
						c.MustStore64(0xbad000, 1) // violation under retry+affinity
					}
					for mode == 2 { // runaway under a tiny budget
						c.MustStore(p, payload)
					}
					return nil
				}, opts...)
				switch {
				case err == nil:
					clean.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					if _, ok := sdrad.IsBudget(err); ok {
						preempted.Add(1)
						break
					}
					if _, ok := sdrad.IsViolation(err); ok {
						contained.Add(1)
						break
					}
					t.Errorf("goroutine %d iter %d: unexpected error %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()

	if cancelled.Load() == 0 || preempted.Load() == 0 || contained.Load() == 0 || clean.Load() == 0 {
		t.Errorf("hammer did not exercise all outcomes: clean=%d contained=%d preempted=%d cancelled=%d",
			clean.Load(), contained.Load(), preempted.Load(), cancelled.Load())
	}
}

// TestDomainDoCleanRunAllocatesNothing pins the host cost of a clean
// Domain.Do with no options at zero heap allocations: the domain hands
// every entry its one DomainCtx, no option set is resolved, and a nil
// error skips the typed violation and budget checks. The run itself
// allocates, stores, loads and frees simulated memory, which costs
// virtual cycles, not host garbage.
func TestDomainDoCleanRunAllocatesNothing(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()
	ctx := context.Background()
	buf := make([]byte, 64)
	fn := func(c *sdrad.Ctx) error {
		p := c.MustAlloc(len(buf))
		c.MustStore(p, buf)
		c.MustLoad(p, buf)
		c.MustFree(p)
		return nil
	}
	run := func() {
		if err := dom.Do(ctx, fn); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the heap's free lists
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("a clean Domain.Do allocates %v times, want 0", allocs)
	}
}
