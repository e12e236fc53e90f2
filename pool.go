package sdrad

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/lifecycle"
)

// This file implements Pool, the concurrency layer of the public API.
//
// A Supervisor simulates one single-core machine, so it and its domains
// must stay on one goroutine. Pool lifts that restriction the way a
// multi-socket deployment would: it owns N independent workers, each with
// a private Supervisor (its own simulated machine, PKU keyset, and
// virtual clock) and a warm, pre-initialized domain. Requests dispatch to
// the least-loaded worker (round-robin tiebreak), run in that worker's
// warm domain, and the domain is discarded on return, so every Run starts
// from pristine memory without paying domain init/deinit per request.
//
// The worker set is elastic (DESIGN.md §13): Resize publishes a new
// worker-set snapshot atomically. A hot-added worker enters dispatch
// only after a clean warm-up Enter/sweep proved its fresh domain
// pristine; a removed worker is first unpublished (no new dispatch can
// reach it), then its in-flight work finishes under its lock, its
// domain closes, and the husk is retired — kept for stats aggregation so
// DetectionCounts/DomainStats never lose the work it did.

// ErrPoolClosed is returned by Do and DoBatch after Close (and while
// the pool is draining: admission has stopped).
var ErrPoolClosed = errors.New("sdrad: pool is closed")

// errWorkerRetired is the internal re-dispatch signal: a call raced a
// shrink onto a worker that was retired before the call acquired its
// lock. The dispatcher retries against the current worker set; the
// sentinel never escapes to callers.
var errWorkerRetired = errors.New("sdrad: pool worker retired")

// poolWorker is one shard: a private simulated machine plus its warm
// domain. The mutex serializes all access to the worker's Supervisor,
// upholding the single-goroutine contract per shard.
type poolWorker struct {
	mu  sync.Mutex
	sup *Supervisor
	dom *Domain
	// inflight counts requests dispatched to this worker that have not
	// finished (including those waiting on mu); it drives least-loaded
	// dispatch and is read without the lock.
	inflight atomic.Int64
	requests atomic.Uint64
	// retired marks a worker removed by Resize or Close: its domain is
	// gone and it must never execute again — a racing call that lands
	// here re-dispatches. Written and read under mu.
	retired bool
	// closedStats snapshots the warm domain's lifecycle counters just
	// before the domain is torn down (Close or a shrink), so post-Close
	// accounting (DomainStats) reports the work done instead of silently
	// reading zero. Written and read under mu.
	closedStats      DomainStats
	closedStatsValid bool
}

// Pool executes isolated domains on N parallel workers. Unlike
// Supervisor and Domain, a Pool is safe for concurrent use by any
// number of goroutines. Create with NewPool or NewPoolWithDomain;
// Resize grows or shrinks the worker set at runtime.
type Pool struct {
	lc *lifecycle.Machine
	// construction parameters, kept so Resize can build new workers
	// identical to the originals.
	supOpts []Option
	domOpts []DomainOption
	n       int

	// workers is the published worker-set snapshot: dispatch paths load
	// it atomically; Resize/teardown swap it under retireMu.
	workers  atomic.Pointer[[]*poolWorker]
	rr       atomic.Uint64
	closed   atomic.Bool
	draining atomic.Bool

	// calls counts whole pool calls in flight (Do, DoBatch, and external
	// dispatchBatch entries) — unlike the per-worker inflight slots it
	// covers a call between retry attempts, when no worker is reserved.
	// Drain waits on it through drainCond (on drainMu), signalled when
	// the count hits zero while draining.
	calls     atomic.Int64
	drainMu   sync.Mutex
	drainCond *sync.Cond

	// retireMu serializes worker-set mutations (Resize, teardown) and
	// guards retired.
	retireMu sync.Mutex
	// retired holds workers removed by shrinks, for stats aggregation.
	retired []*poolWorker
}

// NewPool creates a pool of n workers (n <= 0 means runtime.NumCPU()),
// each owning a private Supervisor built with opts and one warm domain
// with the default configuration; use NewPoolWithDomain to size the
// warm domains.
func NewPool(n int, opts ...Option) (*Pool, error) {
	return NewPoolWithDomain(n, nil, opts...)
}

// testHookWorkerCreated, when non-nil, observes each worker as pool
// construction (or a grow) brings it up. It is a test seam: the
// partial-failure cleanup test uses it to reach workers that a failed
// NewPoolWithDomain never returns.
var testHookWorkerCreated func(i int, w *poolWorker)

// testHookDispatchAttempt, when non-nil, observes each dispatch attempt
// of Pool.Do before a worker is picked (attempt starts at 1; policy
// retries and errWorkerRetired re-dispatches each count). It is a test
// seam: the drain regression uses it to park a call between attempts —
// the window in which it holds no worker inflight slot.
var testHookDispatchAttempt func(attempt int)

// NewPoolWithDomain is NewPool with explicit configuration for the warm
// domain of every worker (heap pages, stack pages, ...). If any worker
// fails to initialize, the domains of the workers already brought up are
// closed before the error returns. The returned pool is already serving
// (Init and Start have run).
func NewPoolWithDomain(n int, domOpts []DomainOption, opts ...Option) (*Pool, error) {
	p := newDeferredPool(n, domOpts, opts...)
	if err := p.Init(); err != nil {
		return nil, err
	}
	if err := p.Start(); err != nil {
		return nil, err
	}
	return p, nil
}

// newDeferredPool constructs a pool without allocating its workers: the
// lifecycle-managed form (DESIGN.md §13). Call Init to build the worker
// machines and Start to begin serving; until then the pool is in
// StateInitializing and rejects work.
func newDeferredPool(n int, domOpts []DomainOption, opts ...Option) *Pool {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	p := &Pool{
		lc:      lifecycle.NewMachine("sdrad.Pool"),
		supOpts: opts,
		domOpts: domOpts,
		n:       n,
	}
	p.drainCond = sync.NewCond(&p.drainMu)
	return p
}

// newWorker builds one worker: a private Supervisor plus its warm
// domain, from the pool's construction parameters.
func (p *Pool) newWorker() (*poolWorker, error) {
	sup := New(p.supOpts...)
	dom, err := sup.NewDomain(p.domOpts...)
	if err != nil {
		return nil, err
	}
	return &poolWorker{sup: sup, dom: dom}, nil
}

// warmUp is the clean warm-up pass a hot-added worker must survive
// before entering dispatch: one Enter with a trivial body (paying entry,
// integrity sweep, and exit on the worker's own virtual clock) followed
// by the same discard-on-return scrub real calls get, proving the fresh
// domain starts pristine.
func (w *poolWorker) warmUp() error {
	err := w.sup.sys.EnterWithBudget(w.dom.udi, 0, func(*Ctx) error { return nil })
	if !core.RewoundBy(err, w.sup.sys, w.dom.udi) {
		if derr := w.dom.Discard(); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// Init allocates the pool's workers (lifecycle: legal once, from
// StateInitializing). NewPool calls it for you; it exists for deferred
// pools.
func (p *Pool) Init() error {
	return p.lc.Init(func() error {
		ws := make([]*poolWorker, p.n)
		for i := range ws {
			w, err := p.newWorker()
			if err != nil {
				for _, u := range ws[:i] {
					_ = u.dom.Close() //lint:errclass best-effort unwind; the construction failure is the error callers must see
				}
				return fmt.Errorf("sdrad: pool worker %d: %w", i, err)
			}
			ws[i] = w
			if testHookWorkerCreated != nil {
				testHookWorkerCreated(i, w)
			}
		}
		p.workers.Store(&ws)
		return nil
	})
}

// Start moves the pool to StateHealthy and opens dispatch (lifecycle:
// legal once, after Init).
func (p *Pool) Start() error { return p.lc.Start(nil) }

// State returns the pool's lifecycle state.
func (p *Pool) State() lifecycle.State { return p.lc.State() }

// Drain stops admission (new calls return ErrPoolClosed) and blocks
// until every in-flight call has returned — whole calls, not attempts:
// a call parked between retry attempts (or between an errWorkerRetired
// re-dispatch) holds no worker slot, but Drain still waits for it, so
// no admitted call can execute after Drain returns. Batches arriving
// through dispatchBatch once draining has begun are shed with
// ErrPoolClosed, so an async layer still feeding the pool cannot extend
// the drain indefinitely; for the graceful order, drain the AsyncPool
// first (its backlog then executes before admission closes here).
// Idempotent; legal after Start.
func (p *Pool) Drain() error {
	return p.lc.Drain(func() error {
		p.draining.Store(true)
		p.drainMu.Lock()
		defer p.drainMu.Unlock()
		for p.calls.Load() != 0 {
			p.drainCond.Wait()
		}
		return nil
	})
}

// beginCall registers one whole pool call for drain accounting. It must
// run before the admission check: Drain stores the draining flag and
// then reads the counter, so a call that incremented first is either
// observed by that read or itself observes draining and rejects — the
// pair closes the window where a call admitted before Drain holds no
// worker slot between attempts.
func (p *Pool) beginCall() { p.calls.Add(1) }

// endCall retires a whole pool call and wakes a waiting Drain when the
// last one leaves.
func (p *Pool) endCall() {
	if p.calls.Add(-1) == 0 && p.draining.Load() {
		p.drainMu.Lock()
		p.drainCond.Broadcast()
		p.drainMu.Unlock()
	}
}

// Stop tears down every worker's warm domain (lifecycle: legal once;
// Close is the idempotent form legacy call sites use).
func (p *Pool) Stop(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return p.lc.Stop(p.teardown)
}

// Close tears down every worker's warm domain. Runs that lost the race
// return ErrPoolClosed. Idempotent: later calls return the first
// outcome.
func (p *Pool) Close() error { return p.lc.Close(p.teardown) }

// teardown closes every live worker's domain (retired workers already
// closed theirs during the shrink that removed them).
func (p *Pool) teardown() error {
	p.retireMu.Lock()
	defer p.retireMu.Unlock()
	p.closed.Store(true)
	var first error
	for i, w := range p.snapshot() {
		if err := retireWorker(w); err != nil && first == nil {
			first = fmt.Errorf("sdrad: pool worker %d: %w", i, err)
		}
	}
	return first
}

// retireWorker waits out the worker's current call, snapshots its
// domain counters, closes the domain, and marks it retired.
func retireWorker(w *poolWorker) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		return nil
	}
	if st, err := w.dom.Stats(); err == nil {
		w.closedStats, w.closedStatsValid = st, true
	}
	w.retired = true
	return w.dom.Close()
}

// snapshot returns the published worker set (nil before Init).
func (p *Pool) snapshot() []*poolWorker {
	ws := p.workers.Load()
	if ws == nil {
		return nil
	}
	return *ws
}

// allWorkers returns the live workers plus the retired husks, for stats
// aggregators: a shrink must never make completed work disappear from
// DetectionCounts/DomainStats/VirtualCycles.
func (p *Pool) allWorkers() []*poolWorker {
	ws := p.snapshot()
	p.retireMu.Lock()
	if len(p.retired) > 0 {
		all := make([]*poolWorker, 0, len(ws)+len(p.retired))
		all = append(all, ws...)
		all = append(all, p.retired...)
		ws = all
	}
	p.retireMu.Unlock()
	return ws
}

// Workers returns the current number of parallel workers.
func (p *Pool) Workers() int { return len(p.snapshot()) }

// Resize grows or shrinks the worker set to n (lifecycle: legal only
// while serving — Healthy or Degraded). Growing builds fresh workers
// from the pool's construction parameters and publishes them only after
// each passes its clean warm-up Enter/sweep. Shrinking removes workers
// from the tail: the worker is first unpublished (new dispatch cannot
// reach it; a racing call that already picked it transparently
// re-dispatches), then its in-flight call finishes, its domain closes,
// and the husk is retired into the stats aggregation set. Worker
// indices of the surviving prefix are stable, so WithWorker affinity
// keys stay meaningful across resizes.
func (p *Pool) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("sdrad: pool resize to %d workers (want >= 1)", n)
	}
	if err := p.lc.Resizable(); err != nil {
		return err
	}
	p.retireMu.Lock()
	defer p.retireMu.Unlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	cur := p.snapshot()
	if n == len(cur) {
		return nil
	}
	if n > len(cur) {
		added := make([]*poolWorker, 0, n-len(cur))
		for i := len(cur); i < n; i++ {
			w, err := p.newWorker()
			if err == nil {
				err = w.warmUp()
			}
			if err != nil {
				for _, u := range added {
					_ = u.dom.Close() //lint:errclass best-effort unwind; the grow failure is the error callers must see
				}
				return fmt.Errorf("sdrad: pool grow worker %d: %w", i, err)
			}
			if testHookWorkerCreated != nil {
				testHookWorkerCreated(i, w)
			}
			added = append(added, w)
		}
		next := make([]*poolWorker, 0, n)
		next = append(next, cur...)
		next = append(next, added...)
		p.workers.Store(&next)
		return nil
	}
	next := make([]*poolWorker, n)
	copy(next, cur[:n])
	p.workers.Store(&next)
	var first error
	for i, w := range cur[n:] {
		if err := retireWorker(w); err != nil && first == nil {
			first = fmt.Errorf("sdrad: pool shrink worker %d: %w", n+i, err)
		}
		p.retired = append(p.retired, w)
	}
	return first
}

// pickFrom chooses the least-loaded worker of ws, breaking ties
// round-robin so idle workers rotate instead of piling onto worker 0,
// and reserves an inflight slot on the winner in the same atomic step.
// Reserving inside the pick (dispatch.Acquire) rather than later in
// runOn closes the window where a burst of concurrent Dos all observed
// the same idle worker and piled onto it; the caller owns the
// reservation and runOn releases it.
func (p *Pool) pickFrom(ws []*poolWorker) *poolWorker {
	return ws[dispatch.Acquire(len(ws), int(p.rr.Add(1)-1), func(i int) *atomic.Int64 {
		return &ws[i].inflight
	})]
}

// pin maps a WithWorker affinity key onto ws and reserves the worker's
// inflight slot.
func pin(ws []*poolWorker, worker int) *poolWorker {
	idx := worker % len(ws)
	if idx < 0 {
		idx += len(ws)
	}
	w := ws[idx]
	w.inflight.Add(1)
	return w
}

// admit loads the current worker set, rejecting when the pool is not
// serving.
func (p *Pool) admit() ([]*poolWorker, error) {
	if p.closed.Load() || p.draining.Load() {
		return nil, ErrPoolClosed
	}
	ws := p.snapshot()
	if len(ws) == 0 {
		return nil, &lifecycle.LifecycleError{Component: "sdrad.Pool", Op: "Do", From: p.lc.State(), Reason: "before Init"}
	}
	return ws, nil
}

// Do implements Runner: it executes fn inside a pristine isolated domain
// under the given per-call policy. Without WithWorker, every attempt
// dispatches to the least-loaded worker; WithWorker pins all attempts
// (including retries) to one worker, composing with WithFallback so an
// affinity-bound call still gets the paper's alternate action.
// Violations rewind and discard the worker's domain, exactly like
// Domain.Do; on every other return path the domain is discarded too, so
// state never leaks between calls.
func (p *Pool) Do(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) error {
	set := applyRunOptions(opts)
	p.beginCall()
	defer p.endCall()
	ws, err := p.admit()
	if err != nil {
		return err
	}
	hz := ws[0].sup.sys.Clock().Model().CPUHz
	attempt := 0
	return runPolicy(ctx, set, hz, func(budget uint64) (*core.System, core.UDI, error) {
		for {
			attempt++
			if testHookDispatchAttempt != nil {
				testHookDispatchAttempt(attempt)
			}
			cur := p.snapshot()
			if len(cur) == 0 || p.closed.Load() {
				return nil, 0, ErrPoolClosed
			}
			var w *poolWorker
			if set.hasWorker {
				w = pin(cur, set.worker)
			} else {
				w = p.pickFrom(cur)
			}
			err := p.runOn(w, budget, fn)
			if errors.Is(err, errWorkerRetired) {
				// The worker was removed by a shrink between pick and
				// lock; re-dispatch against the current set.
				continue
			}
			return w.sup.sys, w.dom.udi, err
		}
	})
}

// runOn executes one attempt on worker w with the given cycle budget,
// upholding the worker's single-goroutine contract and the discard-on-
// return invariant. The caller has already reserved the worker's
// inflight slot (pickFrom for least-loaded dispatch, pin for pinned
// calls); runOn releases it.
func (p *Pool) runOn(w *poolWorker, budget uint64, fn func(*Ctx) error) error {
	defer w.inflight.Add(-1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		return errWorkerRetired
	}
	w.requests.Add(1)
	return p.attemptLocked(w, budget, fn)
}

// attemptLocked is one domain entry plus the discard-on-return
// invariant, with worker w's lock already held (runOn for serial calls,
// execBatchOn for batch replays).
func (p *Pool) attemptLocked(w *poolWorker, budget uint64, fn func(*Ctx) error) error {
	if p.closed.Load() {
		return ErrPoolClosed
	}
	err := w.sup.sys.EnterWithBudget(w.dom.udi, budget, fn)
	// Discard-on-return: if the worker's own domain was rewound (by a
	// violation or a budget preemption), it was already discarded; every
	// other exit scrubs it here. The UDI check inside RewoundBy matters:
	// a nested or foreign domain's rewind error propagating through fn
	// does not rewind the worker domain, which must then still be
	// discarded.
	if !core.RewoundBy(err, w.sup.sys, w.dom.udi) {
		if derr := w.dom.Discard(); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// dispatchBatch resolves a batch's worker against the current worker
// set and executes it, transparently re-dispatching if a shrink retires
// the chosen worker first. With hasWorker, worker is the stable
// affinity key (modulo the live size); otherwise the least-loaded
// worker wins. It is the single batch entry point for DoBatchItems and
// AsyncPool, and it fills each call's err. A batch arriving after Drain
// began is shed with ErrPoolClosed: unlike serial Do calls (admitted
// before the drain, allowed to finish their retries), batch traffic
// reaches here without pool admission — the async layer feeds batches
// for as long as it lives, and a drain that honored them would never
// terminate. A batch already executing on a worker still completes.
func (p *Pool) dispatchBatch(worker int, hasWorker bool, calls []*batchCall) {
	p.beginCall()
	defer p.endCall()
	for {
		ws := p.snapshot()
		if len(ws) == 0 || p.closed.Load() || p.draining.Load() {
			for _, c := range calls {
				c.err = ErrPoolClosed
			}
			return
		}
		var w *poolWorker
		if hasWorker {
			w = pin(ws, worker)
		} else {
			w = p.pickFrom(ws)
		}
		if p.execBatchOn(w, calls) {
			return
		}
	}
}

// execBatchOn executes calls as one batch on worker w under the replay
// rule of batch.go. The caller has reserved the worker's inflight slot;
// execBatchOn releases it. It returns false when the worker was retired
// before the batch acquired its lock (the caller re-dispatches; nothing
// ran).
func (p *Pool) execBatchOn(w *poolWorker, calls []*batchCall) bool {
	defer w.inflight.Add(-1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.retired {
		return false
	}
	if p.closed.Load() {
		for _, c := range calls {
			c.err = ErrPoolClosed
		}
		return true
	}
	// Count only calls that will actually be attempted: a call whose
	// context is already done never enters a domain on the serial path
	// and is not a dispatched request here either.
	var attempted uint64
	for _, c := range calls {
		if c.ctx.Err() == nil {
			attempted++
		}
	}
	w.requests.Add(attempted)
	hz := w.sup.sys.Clock().Model().CPUHz
	b := &batchBackend{
		hz: hz,
		enter: func(budget uint64, fn func(*Ctx) error) error {
			return w.sup.sys.EnterWithBudget(w.dom.udi, budget, fn)
		},
		discard: w.dom.Discard,
		serial: func(c *batchCall) error {
			return runPolicy(c.ctx, c.set, hz, func(budget uint64) (*core.System, core.UDI, error) {
				return w.sup.sys, w.dom.udi, p.attemptLocked(w, budget, c.fn)
			})
		},
	}
	b.run(calls)
	return true
}

// DoBatch executes fns as one coalesced batch on a single worker: one
// Enter/Exit, one integrity sweep, and one discard decision for the
// whole batch instead of per call. Results are positional — errs[i] is
// what Do(ctx, fns[i], opts...) would have returned, including the
// pristine-domain-per-call semantics: a faulting batch is transparently
// re-executed serially (see the replay rule in batch.go), so calls must
// tolerate re-execution exactly as with WithRetries. Without WithWorker
// the batch goes to the least-loaded worker; all fns run on that one
// worker.
func (p *Pool) DoBatch(ctx context.Context, fns []func(*Ctx) error, opts ...RunOption) []error {
	items := make([]BatchItem, len(fns))
	for i, fn := range fns {
		items[i] = BatchItem{Ctx: ctx, Fn: fn, Opts: opts}
	}
	return p.DoBatchItems(items)
}

// DoBatchItems is DoBatch for heterogeneous batches: each item carries
// its own context and options (a budget, retries, a fallback). The
// batch runs on one worker: the one the first item pins with
// WithWorker, or the least-loaded worker if it pins none.
func (p *Pool) DoBatchItems(items []BatchItem) []error {
	errs := make([]error, len(items))
	if len(items) == 0 {
		return errs
	}
	if _, err := p.admit(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	slab := make([]batchCall, len(items))
	calls := make([]*batchCall, len(items))
	for i := range items {
		slab[i] = items[i].toCall()
		calls[i] = &slab[i]
	}
	first := calls[0].set
	p.dispatchBatch(first.worker, first.hasWorker, calls)
	for i, c := range calls {
		errs[i] = c.err
	}
	return errs
}

// DetectionCounts aggregates the per-mechanism containment counters
// across all workers, including workers retired by shrinks.
func (p *Pool) DetectionCounts() map[string]uint64 {
	out := make(map[string]uint64)
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		//lint:detorder commutative per-mechanism sums into a map; no order-dependent state
		for mech, n := range w.sup.DetectionCounts() {
			out[mech] += n
		}
		w.mu.Unlock()
	}
	return out
}

// WorkerDetectionCounts returns each live worker's containment counters
// individually (index = worker). Workers retired by shrinks are not
// listed here — their counters remain in the DetectionCounts aggregate.
func (p *Pool) WorkerDetectionCounts() []map[string]uint64 {
	ws := p.snapshot()
	out := make([]map[string]uint64, len(ws))
	for i, w := range ws {
		w.mu.Lock()
		out[i] = w.sup.DetectionCounts()
		w.mu.Unlock()
	}
	return out
}

// MemoryStats aggregates the simulated-memory accounting across all
// workers' machines, including workers retired by shrinks.
func (p *Pool) MemoryStats() MemoryStats {
	var agg MemoryStats
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		ms := w.sup.MemoryStats()
		w.mu.Unlock()
		agg.MappedPages += ms.MappedPages
		agg.Loads += ms.Loads
		agg.Stores += ms.Stores
		agg.BytesRead += ms.BytesRead
		agg.BytesWritten += ms.BytesWritten
		agg.Faults += ms.Faults
		agg.DirtyPages += ms.DirtyPages
		agg.TLBHits += ms.TLBHits
		agg.TLBMisses += ms.TLBMisses
		agg.Domains += ms.Domains
	}
	return agg
}

// VirtualTime returns the elapsed virtual time of the pool as a parallel
// machine: the maximum across workers (they run concurrently, so the
// slowest worker bounds the makespan). Retired workers count: their
// elapsed time bounded the makespan while they were live.
func (p *Pool) VirtualTime() time.Duration {
	var max time.Duration
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		vt := w.sup.VirtualTime()
		w.mu.Unlock()
		if vt > max {
			max = vt
		}
	}
	return max
}

// TotalVirtualTime returns the summed virtual time across workers
// (including retired ones) — the aggregate simulated CPU time consumed,
// the basis of the sustainability accounting. TotalVirtualTime/
// VirtualTime measures achieved parallelism.
func (p *Pool) TotalVirtualTime() time.Duration {
	var sum time.Duration
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		sum += w.sup.VirtualTime()
		w.mu.Unlock()
	}
	return sum
}

// VirtualCycles returns the summed virtual cycles across all workers'
// machines (including retired ones) — the aggregate simulated CPU time
// as an exact integer (TotalVirtualTime rounds through the cost model's
// frequency; the campaign engine's parity oracles need the cycles
// themselves).
func (p *Pool) VirtualCycles() uint64 {
	var sum uint64
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		sum += w.sup.sys.Clock().Cycles()
		w.mu.Unlock()
	}
	return sum
}

// DomainStats aggregates the warm domains' lifecycle counters across all
// workers, including retired ones (entries, clean exits, violations,
// rewinds, preemptions). After a worker's domain is torn down (Close or
// a shrink) its counters come from the snapshot taken at teardown, so
// final accounting still reflects the work done.
func (p *Pool) DomainStats() DomainStats {
	var agg DomainStats
	for _, w := range p.allWorkers() {
		w.mu.Lock()
		st, err := w.dom.Stats()
		if err != nil && w.closedStatsValid {
			st, err = w.closedStats, nil
		}
		w.mu.Unlock()
		if err != nil {
			continue
		}
		agg.Entries += st.Entries
		agg.CleanExits += st.CleanExits
		agg.Violations += st.Violations
		agg.Rewinds += st.Rewinds
		agg.Preemptions += st.Preemptions
		agg.RewindTime += st.RewindTime
	}
	return agg
}

// PoolStats reports per-worker dispatch accounting.
type PoolStats struct {
	// Requests counts calls dispatched per live worker: one per serial
	// Do attempt (retries count each attempt) and one per batched call
	// admitted with a live context (a batch's serial replays do not
	// count again).
	Requests []uint64
}

// Stats returns a snapshot of the dispatch counters for the live
// workers.
func (p *Pool) Stats() PoolStats {
	ws := p.snapshot()
	st := PoolStats{Requests: make([]uint64, len(ws))}
	for i, w := range ws {
		st.Requests[i] = w.requests.Load()
	}
	return st
}
