package sdrad_test

import (
	"context"
	"errors"
	"testing"

	sdrad "repro"
	"repro/internal/fault"
)

// cheapFn is a benign batched call: alloc, store, free.
func cheapFn(payload []byte) func(*sdrad.Ctx) error {
	return func(c *sdrad.Ctx) error {
		p := c.MustAlloc(len(payload))
		c.MustStore(p, payload)
		c.MustFree(p)
		return nil
	}
}

func TestPoolDoBatchAllCleanAmortizesEntries(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	const k = 8
	fns := make([]func(*sdrad.Ctx) error, k)
	for i := range fns {
		fns[i] = cheapFn([]byte("batched-call-payload"))
	}
	errs := pool.DoBatch(context.Background(), fns)
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	st := pool.DomainStats()
	if st.Entries != 1 {
		t.Errorf("batch of %d used %d domain entries, want 1 (amortized Enter)", k, st.Entries)
	}
	if st.CleanExits != 1 || st.Violations != 0 {
		t.Errorf("stats = %+v, want one clean exit, no violations", st)
	}
}

// TestPoolDoBatchItemsAllocations pins the host cost of a committed
// pool batch at DoBatchItems' own three slices (errs, the call slab and
// its pointers): each worker keeps its batch engine from batch to
// batch, so the engine, its closures and its live list are not rebuilt
// per batch. The pin holds under -race too.
func TestPoolDoBatchItemsAllocations(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	items := make([]sdrad.BatchItem, 8)
	for i := range items {
		items[i] = sdrad.BatchItem{Ctx: context.Background(), Fn: func(*sdrad.Ctx) error { return nil }}
	}
	run := func() {
		for i, err := range pool.DoBatchItems(items) {
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
	}
	run() // grow each worker's live list
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs != 3 {
		t.Errorf("a committed pool batch of %d allocates %v times, want 3", len(items), allocs)
	}
}

// TestPoolDoBatchViolationIsolation: a violation in the middle of a
// batch must not poison the other calls — they resolve exactly as if
// executed serially.
func TestPoolDoBatchViolationIsolation(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	const bad = 3
	fns := make([]func(*sdrad.Ctx) error, 8)
	for i := range fns {
		if i == bad {
			fns[i] = func(c *sdrad.Ctx) error {
				c.MustStore64(0xbad_0000, 1) // wild write: immediate trap
				return nil
			}
			continue
		}
		fns[i] = cheapFn([]byte("benign"))
	}
	errs := pool.DoBatch(context.Background(), fns)
	for i, err := range errs {
		if i == bad {
			if _, ok := sdrad.IsViolation(err); !ok {
				t.Errorf("call %d: %v, want ViolationError", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("call %d poisoned by call %d's violation: %v", i, bad, err)
		}
	}
}

// TestPoolDoBatchSweepDetectedFaultIsolation covers the hard
// attribution case: a use-after-free whose evidence only surfaces at a
// heap sweep (not at the faulting store). The whole batch replays
// serially, so the faulting call — and only the faulting call — reports
// the violation, with the same mechanism serial execution reports.
func TestPoolDoBatchSweepDetectedFaultIsolation(t *testing.T) {
	serialMech := func() string {
		pool, err := sdrad.NewPool(1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = pool.Close() }()
		err = pool.Do(context.Background(), func(c *sdrad.Ctx) error {
			fault.Inject(c, fault.UseAfterFree, 0)
			return nil
		})
		v, ok := sdrad.IsViolation(err)
		if !ok {
			t.Fatalf("serial UAF = %v, want violation", err)
		}
		return v.Mechanism.String()
	}()

	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	const bad = 2
	fns := make([]func(*sdrad.Ctx) error, 6)
	for i := range fns {
		if i == bad {
			fns[i] = func(c *sdrad.Ctx) error {
				fault.Inject(c, fault.UseAfterFree, 0)
				return nil
			}
			continue
		}
		fns[i] = cheapFn([]byte("benign-after-uaf"))
	}
	errs := pool.DoBatch(context.Background(), fns)
	for i, err := range errs {
		if i == bad {
			v, ok := sdrad.IsViolation(err)
			if !ok {
				t.Fatalf("call %d: %v, want ViolationError", i, err)
			}
			if v.Mechanism.String() != serialMech {
				t.Errorf("batched mechanism %q != serial mechanism %q", v.Mechanism, serialMech)
			}
			continue
		}
		if err != nil {
			t.Errorf("call %d poisoned by sweep-detected UAF: %v", i, err)
		}
	}
}

// TestPoolDoBatchBudgetExhaustionIsolation is the batched
// budget-exhaustion regression test: a *BudgetError in call i of a
// batch must not poison calls i+1..K.
func TestPoolDoBatchBudgetExhaustionIsolation(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	const runaway = 2
	fns := make([]func(*sdrad.Ctx) error, 6)
	for i := range fns {
		if i == runaway {
			fns[i] = func(c *sdrad.Ctx) error {
				p := c.MustAlloc(64)
				for j := 0; j < 100_000; j++ {
					_ = c.MustLoad64(p) // burns far more than the budget
				}
				c.MustFree(p)
				return nil
			}
			continue
		}
		fns[i] = cheapFn([]byte("quick"))
	}
	errs := pool.DoBatch(context.Background(), fns, sdrad.WithCycleBudget(50_000))
	for i, err := range errs {
		if i == runaway {
			if _, ok := sdrad.IsBudget(err); !ok {
				t.Errorf("runaway call %d: %v, want BudgetError", i, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("call %d poisoned by call %d's budget exhaustion: %v", i, runaway, err)
		}
	}
	st := pool.DomainStats()
	if st.Preemptions == 0 {
		t.Error("no preemption recorded for the runaway call")
	}
}

// TestPoolDoBatchAppErrorTailReplay: an application error mid-batch
// commits the clean prefix and re-derives the tail serially.
func TestPoolDoBatchAppErrorTailReplay(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	appErr := errors.New("rejected payload")
	ran := make([]int, 6)
	fns := make([]func(*sdrad.Ctx) error, 6)
	for i := range fns {
		i := i
		fns[i] = func(c *sdrad.Ctx) error {
			ran[i]++
			if i == 3 {
				return appErr
			}
			p := c.MustAlloc(32)
			c.MustFree(p)
			return nil
		}
	}
	errs := pool.DoBatch(context.Background(), fns)
	for i, err := range errs {
		switch {
		case i == 3 && !errors.Is(err, appErr):
			t.Errorf("call 3 = %v, want application error", err)
		case i != 3 && err != nil:
			t.Errorf("call %d: %v", i, err)
		}
	}
	for i, n := range ran {
		switch {
		case i < 3 && n != 1:
			t.Errorf("clean-prefix call %d executed %d times, want 1", i, n)
		case i >= 3 && n != 1 && i != 3:
			t.Errorf("tail call %d executed %d times, want 1 (replayed once, not run in batch after the error)", i, n)
		}
	}
}

// TestPoolDoBatchMatchesSerial runs the same mixed workload through the
// serial Do path and through DoBatch and asserts identical outcome
// classification per call — the batched==serial contract the campaign
// oracle checks at scale.
func TestPoolDoBatchMatchesSerial(t *testing.T) {
	appErr := errors.New("app error")
	mix := []struct {
		name string
		fn   func(*sdrad.Ctx) error
	}{
		{"clean", cheapFn([]byte("a"))},
		{"uaf", func(c *sdrad.Ctx) error { fault.Inject(c, fault.UseAfterFree, 0); return nil }},
		{"clean2", cheapFn([]byte("bb"))},
		{"apperr", func(*sdrad.Ctx) error { return appErr }},
		{"overflow", func(c *sdrad.Ctx) error { fault.Inject(c, fault.HeapOverflow, 0); return nil }},
		{"clean3", cheapFn([]byte("ccc"))},
		{"crash", func(c *sdrad.Ctx) error { fault.Inject(c, fault.Crash, 0); return nil }},
		{"clean4", cheapFn([]byte("dddd"))},
	}

	classify := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, appErr):
			return "app"
		default:
			if v, ok := sdrad.IsViolation(err); ok {
				return "violation:" + v.Mechanism.String()
			}
			return "other:" + err.Error()
		}
	}

	serial := make([]string, len(mix))
	{
		pool, err := sdrad.NewPool(1)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range mix {
			serial[i] = classify(pool.Do(context.Background(), m.fn))
		}
		_ = pool.Close()
	}
	batched := make([]string, len(mix))
	{
		pool, err := sdrad.NewPool(1)
		if err != nil {
			t.Fatal(err)
		}
		fns := make([]func(*sdrad.Ctx) error, len(mix))
		for i, m := range mix {
			fns[i] = m.fn
		}
		for i, err := range pool.DoBatch(context.Background(), fns) {
			batched[i] = classify(err)
		}
		_ = pool.Close()
	}
	for i := range mix {
		if serial[i] != batched[i] {
			t.Errorf("call %d (%s): serial %q vs batched %q", i, mix[i].name, serial[i], batched[i])
		}
	}
}

// TestDomainDoBatchPersistentHeap: Domain batches keep Domain semantics
// — the heap persists across calls of the batch and across batches.
func TestDomainDoBatchPersistentHeap(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	var addr sdrad.Addr
	errs := dom.DoBatch(context.Background(), []func(*sdrad.Ctx) error{
		func(c *sdrad.Ctx) error {
			addr = c.MustAlloc(16)
			c.MustStore(addr, []byte("persist-me-12345"))
			return nil
		},
		func(c *sdrad.Ctx) error {
			buf := make([]byte, 16)
			c.MustLoad(addr, buf) // call 0's allocation is visible
			if string(buf) != "persist-me-12345" {
				return errors.New("lost call 0's data inside the batch")
			}
			return nil
		},
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// A committed Domain batch does not discard: the data survives.
	got, err := dom.Read(addr, 16)
	if err != nil {
		t.Fatalf("Read after batch: %v", err)
	}
	if string(got) != "persist-me-12345" {
		t.Errorf("heap did not persist across a clean Domain batch: %q", got)
	}
}

// TestPoolDoBatchCancelledContext: calls under an already-cancelled
// context never enter a domain, like serial Do.
func TestPoolDoBatchCancelledContext(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := pool.DoBatch(ctx, []func(*sdrad.Ctx) error{
		cheapFn([]byte("x")), cheapFn([]byte("y")),
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("call %d = %v, want context.Canceled", i, err)
		}
	}
	if st := pool.DomainStats(); st.Entries != 0 {
		t.Errorf("%d domain entries for cancelled batch, want 0", st.Entries)
	}
}

// TestPoolDoBatchWithFallback: per-call policy options survive the
// batch path — the fallback applies to the faulting call's replay only.
func TestPoolDoBatchWithFallback(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	fellBack := 0
	fns := []func(*sdrad.Ctx) error{
		cheapFn([]byte("a")),
		func(c *sdrad.Ctx) error { c.MustStore64(0, 1); return nil }, // null deref
		cheapFn([]byte("b")),
	}
	errs := pool.DoBatch(context.Background(), fns,
		sdrad.WithFallback(func(v *sdrad.ViolationError) error {
			fellBack++
			return nil // alternate action: degrade gracefully
		}))
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v (fallback should have absorbed the violation)", i, err)
		}
	}
	if fellBack != 1 {
		t.Errorf("fallback ran %d times, want exactly 1 (the faulting call)", fellBack)
	}
}

// TestDomainDoBatchAppErrorRunsOnce is the double-apply regression
// test: on a persistent (Domain) backend, a call that returns an
// application error after mutating domain state must NOT be replayed —
// its first execution already happened against exactly its serial heap
// state. Only the calls the early exit skipped re-derive serially.
func TestDomainDoBatchAppErrorRunsOnce(t *testing.T) {
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dom.Close() }()

	appErr := errors.New("validation failed")
	var counter sdrad.Addr
	if err := dom.Do(context.Background(), func(c *sdrad.Ctx) error {
		counter = c.MustAlloc(8)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bump := func(c *sdrad.Ctx) {
		c.MustStore64(counter, c.MustLoad64(counter)+1)
	}
	runs := make([]int, 4)
	errs := dom.DoBatch(context.Background(), []func(*sdrad.Ctx) error{
		func(c *sdrad.Ctx) error { runs[0]++; bump(c); return nil },
		func(c *sdrad.Ctx) error { runs[1]++; bump(c); return appErr },
		func(c *sdrad.Ctx) error { runs[2]++; bump(c); return nil },
		func(c *sdrad.Ctx) error { runs[3]++; bump(c); return nil },
	})
	if !errors.Is(errs[1], appErr) {
		t.Fatalf("call 1 = %v, want its application error", errs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil {
			t.Errorf("call %d: %v", i, errs[i])
		}
	}
	for i, n := range runs {
		if n != 1 {
			t.Errorf("call %d executed %d times, want exactly 1", i, n)
		}
	}
	got, err := dom.Read(counter, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 4 {
		t.Errorf("counter = %d, want 4 (each call's in-domain effect applied once)", got[0])
	}
}

// TestDomainDoBatchFirstCallViolationIsSerial: on a domain whose heap
// has history, a batch headed by an overflow must report the heap word
// a serial Do reports, and run that call once. Replaying it would run
// it on the domain the violation discarded, not on the heap it ran on.
func TestDomainDoBatchFirstCallViolationIsSerial(t *testing.T) {
	// The shape of a server's parse: stage the input, trigger the bug,
	// free the staging block. With a freed 32-byte chunk below the block
	// the overflow runs into the block's header, and the free traps.
	overflow := func(c *sdrad.Ctx) error {
		buf := c.MustAlloc(64)
		fault.Inject(c, fault.HeapOverflow, 0)
		c.MustFree(buf)
		return nil
	}
	history := cheapFn(make([]byte, 32))
	newDomain := func() *sdrad.Domain {
		dom, err := sdrad.New().NewDomain()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dom.Close() })
		if err := dom.Do(context.Background(), history); err != nil {
			t.Fatal(err)
		}
		return dom
	}
	serial := newDomain()
	want := serial.Do(context.Background(), overflow)
	if _, ok := sdrad.IsViolation(want); !ok {
		t.Fatalf("serial overflow = %v, want a violation", want)
	}

	var reports []sdrad.BatchReport
	batched := newDomain()
	batched.OnBatch(func(r sdrad.BatchReport) { reports = append(reports, r) })
	errs := batched.DoBatch(context.Background(), []func(*sdrad.Ctx) error{overflow, history})
	if errs[0] == nil || errs[0].Error() != want.Error() {
		t.Errorf("batched overflow = %v, serial %v", errs[0], want)
	}
	if errs[1] != nil {
		t.Errorf("call after the overflow: %v", errs[1])
	}
	if len(reports) != 1 || reports[0].Replayed != 1 {
		t.Errorf("batch reports %+v, want one report replaying only the call after the overflow", reports)
	}
}
