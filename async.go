package sdrad

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/submit"
)

// This file implements AsyncPool, the asynchronous batched execution
// layer on top of Pool: an io_uring-style submission interface where
// callers enqueue calls into bounded per-worker queues and worker loops
// drain up to MaxBatch queued calls per domain Enter — one Enter/Exit,
// one integrity sweep, one discard decision per batch instead of per
// call (batch.go has the engine and the replay rule that keeps results
// serial-equivalent). Backpressure is explicit: a full queue rejects
// with *OverloadError instead of queueing unboundedly. See DESIGN.md §9.
//
// The layer is elastic (DESIGN.md §13): Resize changes the worker count
// at runtime, and EnableElastic starts the optional controller
// (elastic.go) that resizes automatically from queue depth and batch-
// latency pressure.

// Future is the pending result of a Submit. Wait for it with Wait (or
// select on Done and read Err).
type Future = submit.Future

// OverloadError reports that a submission was rejected by admission
// control: the target worker's queue was at capacity. Servers translate
// it into a load-shedding response (503 / SERVER_ERROR).
type OverloadError = submit.OverloadError

// IsOverload reports whether err is (or wraps) an *OverloadError.
func IsOverload(err error) (*OverloadError, bool) { return submit.IsOverload(err) }

// ErrAsyncClosed is returned by Submit/Do after AsyncPool.Close, and
// resolves any call still queued at close time.
var ErrAsyncClosed = submit.ErrClosed

// AsyncConfig configures an AsyncPool.
type AsyncConfig struct {
	// MaxBatch bounds how many queued calls one domain Enter executes
	// (default 32).
	MaxBatch int
	// MaxInflight bounds admitted-but-unfinished calls across the pool —
	// the -max-inflight flag of the demo servers. It divides evenly into
	// per-worker queue capacities (at least 1 each; default 1024).
	MaxInflight int
}

func (c *AsyncConfig) fill(workers int) {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.MaxInflight < workers {
		c.MaxInflight = workers
	}
}

// AsyncPool is the asynchronous batched front of a Pool. Submissions
// enqueue into a bounded per-worker queue; one consumer goroutine per
// worker drains batches and executes them with the amortized batch
// entry. AsyncPool implements Runner (Do is Submit+Wait) and is safe
// for concurrent use. Create with NewAsyncPool (or NewDeferredAsyncPool
// for the lifecycle-managed form); Close stops the async layer but
// leaves the wrapped Pool open (the caller owns it).
type AsyncPool struct {
	pool *Pool
	cfg  AsyncConfig
	lc   *lifecycle.Machine
	// q is set by Init (atomically, so the hot submission paths read it
	// lock-free even while a deferred pool is still initializing).
	q  atomic.Pointer[submit.Queues]
	rr atomic.Uint64

	lat metrics.BatchLatency

	// resizeMu serializes Resize calls so the two-step grow/shrink
	// ordering against the wrapped Pool is never interleaved.
	resizeMu sync.Mutex

	// ctrl is the optional elastic controller (under ctrlMu).
	ctrlMu sync.Mutex
	ctrl   *elasticController

	batches  atomic.Uint64
	commits  atomic.Uint64
	replayed atomic.Uint64
}

// NewAsyncPool wraps pool with the asynchronous submission layer. The
// returned AsyncPool is already serving (Init and Start have run);
// pool must itself be serving.
func NewAsyncPool(pool *Pool, cfg AsyncConfig) (*AsyncPool, error) {
	a := NewDeferredAsyncPool(pool, cfg)
	if err := a.Init(); err != nil {
		return nil, err
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	return a, nil
}

// NewDeferredAsyncPool constructs the async layer without allocating
// its queues: the lifecycle-managed form (DESIGN.md §13). Call Init to
// build the submission queues and Start to begin serving.
func NewDeferredAsyncPool(pool *Pool, cfg AsyncConfig) *AsyncPool {
	return &AsyncPool{pool: pool, cfg: cfg, lc: lifecycle.NewMachine("sdrad.AsyncPool")}
}

// Init allocates the submission queues (lifecycle: legal once, from
// StateInitializing). NewAsyncPool calls it for you.
func (a *AsyncPool) Init() error {
	return a.lc.Init(func() error {
		workers := a.pool.Workers()
		if workers == 0 {
			// Deferred wrapped pool: size the queue set from its
			// configured worker count instead.
			workers = a.pool.n
		}
		a.cfg.fill(workers)
		depth := a.cfg.MaxInflight / workers
		if depth < 1 {
			depth = 1
		}
		q, err := submit.New(submit.Config{
			Workers:  workers,
			Depth:    depth,
			MaxBatch: a.cfg.MaxBatch,
			Exec:     a.execBatch,
		})
		if err != nil {
			return err
		}
		a.q.Store(q)
		return nil
	})
}

// Start moves the async layer to StateHealthy (lifecycle: legal once,
// after Init).
func (a *AsyncPool) Start() error { return a.lc.Start(nil) }

// State returns the async layer's lifecycle state.
func (a *AsyncPool) State() lifecycle.State { return a.lc.State() }

// queues returns the submission queues (nil before Init).
func (a *AsyncPool) queues() *submit.Queues { return a.q.Load() }

// notServing is the resolved-future rejection for a submission to an
// async layer whose queues do not exist yet.
func (a *AsyncPool) notServing(op string) error {
	return &lifecycle.LifecycleError{Component: "sdrad.AsyncPool", Op: op, From: a.lc.State(), Reason: "before Init"}
}

// Workers returns the number of parallel workers (the wrapped Pool's).
func (a *AsyncPool) Workers() int { return a.pool.Workers() }

// Pool returns the wrapped Pool, for stats aggregation.
func (a *AsyncPool) Pool() *Pool { return a.pool }

// execBatch is the queue drain callback: it turns one drained batch
// into one batched domain execution on the matching pool worker.
func (a *AsyncPool) execBatch(worker int, batch []*submit.Task) {
	calls := make([]*batchCall, len(batch))
	for i, t := range batch {
		calls[i] = t.Payload.(*batchCall)
	}
	rep, cycles := a.pool.dispatchBatch(worker, true, calls)
	a.batches.Add(1)
	if rep.Committed {
		a.commits.Add(1)
	}
	a.replayed.Add(uint64(rep.Replayed))
	a.lat.Observe(len(calls), cycles)
	for i, t := range batch {
		t.Resolve(calls[i].err)
	}
	a.kickController()
}

// Submit enqueues fn for batched execution and returns its Future
// immediately. The returned future resolves to what Do(ctx, fn,
// opts...) would return; admission-control rejections (*OverloadError)
// and submissions after Close (ErrAsyncClosed) come back as an
// already-resolved future. WithWorker pins the call to one worker's
// queue; otherwise the least-loaded queue wins. Because batched calls
// may be re-executed by the replay rule, fn is under the same
// at-least-once contract as WithRetries.
func (a *AsyncPool) Submit(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) *Future {
	set := applyRunOptions(opts)
	q := a.queues()
	if q == nil {
		return submit.Resolved(a.notServing("Submit"))
	}
	call := &batchCall{ctx: ctx, fn: fn, set: set}
	// Dispatch over the queue count, not the pool size: during a resize
	// the two differ for a moment (grow brings pool workers up before
	// their queues exist; shrink drains queues before pool workers go),
	// and the queue set is the one being indexed here.
	workers := q.Workers()
	if set.hasWorker {
		w := set.worker % workers
		if w < 0 {
			w += workers
		}
		fut, err := q.Submit(w, ctx, call)
		if err != nil {
			return submit.Resolved(err)
		}
		return fut
	}
	w := dispatch.LeastLoaded(workers, int(a.rr.Add(1)-1), q.Load)
	fut, err := q.Submit(w, ctx, call)
	if _, over := submit.IsOverload(err); over {
		// The load snapshot can go stale under a burst (queue depths are
		// reserved inside each queue's lock, not at pick time), so a full
		// first pick does not mean the pool is full: fail over across the
		// remaining queues and report overload only when every queue
		// rejected — MaxInflight is a pool-wide admission bound.
		for i := 1; i < workers; i++ {
			fut, err = q.Submit((w+i)%workers, ctx, call)
			if _, over = submit.IsOverload(err); !over {
				break
			}
		}
	}
	if err != nil {
		if _, over := submit.IsOverload(err); over {
			a.kickController()
		}
		return submit.Resolved(err)
	}
	return fut
}

// Do implements Runner: Submit plus Wait. A full queue surfaces as a
// typed *OverloadError — the backpressure signal — rather than
// blocking; callers that prefer blocking admission can Submit from
// fewer goroutines or retry on IsOverload.
func (a *AsyncPool) Do(ctx context.Context, fn func(*Ctx) error, opts ...RunOption) error {
	return a.Submit(ctx, fn, opts...).Wait(ctx)
}

// DoBatch submits fns as consecutive entries on one worker's queue
// (blocking for space rather than rejecting — the caller has already
// sized its batch) and waits for all of them. Results are positional,
// like Pool.DoBatch.
func (a *AsyncPool) DoBatch(ctx context.Context, fns []func(*Ctx) error, opts ...RunOption) []error {
	set := applyRunOptions(opts)
	errs := make([]error, len(fns))
	if len(fns) == 0 {
		return errs
	}
	q := a.queues()
	if q == nil {
		err := a.notServing("DoBatch")
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	workers := q.Workers()
	var w int
	if set.hasWorker {
		w = set.worker % workers
		if w < 0 {
			w += workers
		}
	} else {
		w = dispatch.LeastLoaded(workers, int(a.rr.Add(1)-1), q.Load)
	}
	futs := make([]*Future, len(fns))
	for i, fn := range fns {
		call := &batchCall{ctx: ctx, fn: fn, set: set}
		fut, err := q.SubmitWait(w, ctx, call)
		if err != nil {
			errs[i] = err
			continue
		}
		futs[i] = fut
	}
	for i, fut := range futs {
		if fut != nil {
			errs[i] = fut.Err()
		}
	}
	return errs
}

// Resize grows or shrinks the async layer to n workers (lifecycle:
// legal only while serving). The two layers move in the order that
// never strands a submission: growing resizes the wrapped Pool up
// first and then adds queues (a queue always has a live worker);
// shrinking drains the removed queues first — their backlogs execute
// to completion on the still-live workers, preserving every
// acknowledged call — and only then retires the pool workers.
func (a *AsyncPool) Resize(n int) error {
	if err := a.lc.Resizable(); err != nil {
		return err
	}
	a.resizeMu.Lock()
	defer a.resizeMu.Unlock()
	q := a.queues()
	cur := q.Workers()
	if n == cur {
		return nil
	}
	if n > cur {
		if err := a.pool.Resize(n); err != nil {
			return err
		}
		return a.resizeQueues(q, n)
	}
	if err := a.resizeQueues(q, n); err != nil {
		return err
	}
	return a.pool.Resize(n)
}

// resizeQueues resizes the queue set. A Drain that lands after Resize's
// lifecycle gate closes the queues underneath it; that refusal is
// reported as the typed lifecycle error it is, not as a bare ErrClosed.
func (a *AsyncPool) resizeQueues(q *submit.Queues, n int) error {
	err := q.Resize(n)
	if lerr := a.lc.Resizable(); err != nil && lerr != nil {
		return lerr
	}
	return err
}

// Flush blocks until every call admitted before it has resolved.
func (a *AsyncPool) Flush() {
	if q := a.queues(); q != nil {
		q.Flush()
	}
}

// Drain stops admission gracefully: the elastic controller stops, every
// admitted call resolves (Flush), then the queues close so later
// submissions fail with ErrAsyncClosed. Idempotent; legal after Start.
// The wrapped Pool stays open; when the pool is to be drained too,
// drain this layer first — Pool.Drain sheds batches that arrive after
// it starts.
//
// stopController runs inside the machine transition (the machine mutex
// is held), which is deadlock-free only because lifecycle.Resizable is
// lock-free: the machine publishes StateDraining before this callback
// runs, so a controller loop concurrently inside Resize observes the
// typed refusal and returns to its select — where stopController's stop
// signal reaches it — instead of blocking on the mutex held here.
func (a *AsyncPool) Drain() error {
	return a.lc.Drain(func() error {
		a.stopController()
		if q := a.queues(); q != nil {
			q.Flush()
			q.Close()
		}
		return nil
	})
}

// Stop tears down the async layer (lifecycle: legal once; Close is the
// idempotent form). Queued calls that were not flushed first fail with
// ErrAsyncClosed; in-flight batches finish. The wrapped Pool stays
// open.
func (a *AsyncPool) Stop(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return a.lc.Stop(a.teardown)
}

// Close stops the async layer: new submissions fail with
// ErrAsyncClosed, the queued backlog is failed, in-flight batches
// finish. The wrapped Pool stays open. Idempotent; call Flush (or
// Drain) first for a graceful stop.
func (a *AsyncPool) Close() error { return a.lc.Close(a.teardown) }

// teardown runs under the machine mutex (Stop/Close transition); see
// the Drain comment for why stopController cannot deadlock there.
func (a *AsyncPool) teardown() error {
	a.stopController()
	if q := a.queues(); q != nil {
		q.Close()
	}
	return nil
}

// AsyncStats reports the batching layer's aggregate counters.
type AsyncStats struct {
	// Batches counts executed batches; Committed the ones whose
	// optimistic pass stood; Replayed the calls that fell back to
	// serial re-execution.
	Batches, Committed uint64
	Replayed           uint64
	// Submitted and Rejected count admitted and overload-rejected
	// submissions across workers.
	Submitted, Rejected uint64
	// MaxBatch is the largest batch any worker executed.
	MaxBatch int
}

// Stats returns a snapshot of the async layer's counters.
func (a *AsyncPool) Stats() AsyncStats {
	st := AsyncStats{
		Batches:   a.batches.Load(),
		Committed: a.commits.Load(),
		Replayed:  a.replayed.Load(),
	}
	q := a.queues()
	if q == nil {
		return st
	}
	for w := 0; w < q.Workers(); w++ {
		qs := q.Stats(w)
		st.Submitted += qs.Submitted
		st.Rejected += qs.Rejected
		if qs.MaxBatch > st.MaxBatch {
			st.MaxBatch = qs.MaxBatch
		}
	}
	return st
}

// BatchLatency returns per-batch-size virtual-cycle latency summaries
// (p50/p95/p99 per call), ascending by batch size.
func (a *AsyncPool) BatchLatency() []metrics.BatchSummary { return a.lat.Summaries() }

// Interface compliance checks.
var (
	_ Runner              = (*AsyncPool)(nil)
	_ lifecycle.Component = (*AsyncPool)(nil)
	_ lifecycle.Component = (*Pool)(nil)
	_ lifecycle.Resizer   = (*AsyncPool)(nil)
	_ lifecycle.Resizer   = (*Pool)(nil)
)
