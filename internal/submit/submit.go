package submit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Submit after Close, and resolves any task
// still queued when Close discards the backlog.
var ErrClosed = errors.New("submit: queues closed")

// errUnresolved is the backstop outcome for a task an executor failed to
// resolve; seeing it means the executor callback is buggy.
var errUnresolved = errors.New("submit: executor did not resolve task")

// OverloadError reports that a submission was rejected because the
// target worker's queue was full — the admission-control signal. It is
// an error value (not a panic or a block) so servers can translate it
// into a load-shedding response. A queue that is being removed by a
// shrink rejects with the same error: the submitter fails over exactly
// as it would from a full queue.
type OverloadError struct {
	// Worker is the queue that rejected the submission.
	Worker int
	// Depth is the queue occupancy observed at rejection.
	Depth int
	// Capacity is the queue's configured bound.
	Capacity int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("submit: worker %d queue full (%d/%d)", e.Worker, e.Depth, e.Capacity)
}

// IsOverload reports whether err is (or wraps) an *OverloadError,
// returning it.
func IsOverload(err error) (*OverloadError, bool) {
	var o *OverloadError
	if errors.As(err, &o) {
		return o, true
	}
	return nil, false
}

// Future is the pending result of a submitted task. It is resolved
// exactly once; Done is closed at resolution.
type Future struct {
	done chan struct{}
	once sync.Once
	err  error
}

// Resolved returns a future that is already resolved with err, for
// callers that must hand back a Future on a rejected submission.
func Resolved(err error) *Future {
	f := &Future{done: make(chan struct{})}
	f.resolve(err)
	return f
}

// resolve sets the outcome (first resolution wins) and closes Done.
func (f *Future) resolve(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// Done returns a channel closed when the task has been resolved.
func (f *Future) Done() <-chan struct{} { return f.done }

// Err blocks until the task is resolved and returns its outcome.
func (f *Future) Err() error {
	<-f.done
	return f.err
}

// Wait blocks until the task resolves or ctx is done, returning the
// task's outcome or ctx.Err(). A task abandoned by Wait still executes;
// its outcome is simply no longer observed.
func (f *Future) Wait(ctx context.Context) error {
	select {
	case <-f.done:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Task is one queued call: an opaque payload for the executor plus the
// future producers wait on (one object, so a submission allocates the
// pair once).
type Task struct {
	// Ctx is the submitter's context; executors should honor it.
	Ctx context.Context
	// Payload carries the executor-defined call description.
	Payload any
	fut     Future
}

// Future returns the task's future.
func (t *Task) Future() *Future { return &t.fut }

// Resolve records the task's outcome (first resolution wins).
func (t *Task) Resolve(err error) { t.fut.resolve(err) }

// Config configures Queues.
type Config struct {
	// Workers is the number of queues, each with its own drain loop.
	Workers int
	// Depth is the per-worker queue capacity (default 64).
	Depth int
	// MaxBatch bounds how many tasks one executor call receives
	// (default 16).
	MaxBatch int
	// Exec executes one batch for one worker and must resolve every
	// task. Batches for the same worker never overlap; batches for
	// different workers run concurrently.
	Exec func(worker int, batch []*Task)
}

func (c *Config) fill() error {
	if c.Workers <= 0 {
		return fmt.Errorf("submit: config needs Workers > 0, got %d", c.Workers)
	}
	if c.Exec == nil {
		return errors.New("submit: config needs an Exec callback")
	}
	if c.Depth <= 0 {
		c.Depth = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	return nil
}

// workerQ is one bounded FIFO plus its synchronization. A mutex/cond
// pair (rather than a channel) lets Close, Resize, and blocking submits
// interact without send-on-closed races.
type workerQ struct {
	mu    sync.Mutex
	fill  sync.Cond // signaled when a task arrives or the queue closes
	space sync.Cond // signaled when the drain loop takes tasks
	items []*Task
	// batch is the drain loop's reusable batch slice (a queue's batches
	// never overlap); only the drain goroutine touches it.
	batch []*Task

	// closing marks a queue being removed by Resize: new submissions
	// are rejected (overload, so submitters fail over), the backlog is
	// executed to completion, then the drain loop exits. Under mu.
	closing bool
	// done is closed when the drain loop has exited; Resize waits on
	// it so the removed queue's backlog is fully executed — every
	// admitted task resolved, every durable effect committed — before
	// Resize returns.
	done chan struct{}

	// load counts queued plus executing tasks; read lock-free by
	// dispatch policies.
	load atomic.Int64

	// counters (under mu)
	submitted uint64
	rejected  uint64
	batches   uint64
	maxBatch  int
}

func newWorkerQ() *workerQ {
	wq := &workerQ{done: make(chan struct{})}
	wq.fill.L = &wq.mu
	wq.space.L = &wq.mu
	return wq
}

// Queues is a set of per-worker bounded submission queues with one drain
// goroutine per worker. The queue set is elastic: Resize adds queues
// (fresh drain loops) or removes them from the tail (backlog executed,
// then the loop exits). Create with New; safe for concurrent use.
type Queues struct {
	cfg Config
	// qs is the published queue snapshot: readers (Submit, Load,
	// Stats) load it atomically, Resize swaps it under resizeMu.
	qs     atomic.Pointer[[]*workerQ]
	closed atomic.Bool

	// resizeMu serializes Resize and Close against each other.
	resizeMu sync.Mutex

	// pending tracks accepted-but-unresolved tasks for Flush.
	flushMu   sync.Mutex
	flushCond sync.Cond
	pending   int

	wg sync.WaitGroup
}

// New creates the queues and starts one drain loop per worker.
func New(cfg Config) (*Queues, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	q := &Queues{cfg: cfg}
	q.flushCond.L = &q.flushMu
	qs := make([]*workerQ, cfg.Workers)
	for i := range qs {
		qs[i] = newWorkerQ()
	}
	q.qs.Store(&qs)
	for i, wq := range qs {
		q.wg.Add(1)
		go q.drain(wq, i)
	}
	return q, nil
}

// snapshot returns the published queue set.
func (q *Queues) snapshot() []*workerQ { return *q.qs.Load() }

// at maps a possibly stale worker index onto the current snapshot.
func at(qs []*workerQ, w int) (*workerQ, int) {
	w %= len(qs)
	if w < 0 {
		w += len(qs)
	}
	return qs[w], w
}

// Workers returns the current number of queues.
func (q *Queues) Workers() int { return len(q.snapshot()) }

// Depth returns the per-worker queue capacity. Servers use it to derive
// deterministic retry hints: the capacity is configuration, not load, so
// a hint computed from it is identical across runs.
func (q *Queues) Depth() int { return q.cfg.Depth }

// Load returns worker w's current occupancy (queued + executing),
// suitable as a least-loaded dispatch signal. A stale index (from a
// concurrent shrink) maps onto the current queue set.
func (q *Queues) Load(w int) int64 {
	wq, _ := at(q.snapshot(), w)
	return wq.load.Load()
}

// TotalLoad returns the summed occupancy across all queues — the
// queue-depth pressure signal elastic controllers scale on.
func (q *Queues) TotalLoad() int64 {
	var n int64
	for _, wq := range q.snapshot() {
		n += wq.load.Load()
	}
	return n
}

// Submit enqueues a task for worker w without blocking. It returns the
// task's future, an *OverloadError when the queue is full (or being
// removed by a shrink), or ErrClosed after Close. ctx is attached to
// the task for the executor; a ctx already cancelled is still accepted
// (the executor resolves it).
func (q *Queues) Submit(w int, ctx context.Context, payload any) (*Future, error) {
	return q.submit(w, ctx, payload, false)
}

// SubmitWait is Submit, but when the queue is full it blocks until space
// frees up (or the queue closes or shrinks away) instead of rejecting.
// It exists for callers that provide their own admission control, like
// DoBatch.
func (q *Queues) SubmitWait(w int, ctx context.Context, payload any) (*Future, error) {
	return q.submit(w, ctx, payload, true)
}

func (q *Queues) submit(w int, ctx context.Context, payload any, wait bool) (*Future, error) {
	wq, w := at(q.snapshot(), w)
	wq.mu.Lock()
	for {
		if q.closed.Load() {
			wq.mu.Unlock()
			return nil, ErrClosed
		}
		if wq.closing {
			// The queue is being removed: reject as overload so the
			// submitter's failover path re-dispatches to a live queue.
			depth := len(wq.items)
			wq.rejected++
			wq.mu.Unlock()
			return nil, &OverloadError{Worker: w, Depth: depth, Capacity: q.cfg.Depth}
		}
		if len(wq.items) < q.cfg.Depth {
			break
		}
		if !wait {
			depth := len(wq.items)
			wq.rejected++
			wq.mu.Unlock()
			return nil, &OverloadError{Worker: w, Depth: depth, Capacity: q.cfg.Depth}
		}
		wq.space.Wait()
	}
	t := &Task{Ctx: ctx, Payload: payload, fut: Future{done: make(chan struct{})}}
	wq.items = append(wq.items, t)
	wq.submitted++
	wq.load.Add(1)
	// Count the task for Flush before releasing the queue lock: the
	// drain loop needs wq.mu to take the task, so pending can never
	// lag behind a resolution (which would let Flush return early).
	q.flushMu.Lock()
	q.pending++
	q.flushMu.Unlock()
	wq.fill.Signal()
	wq.mu.Unlock()
	return &t.fut, nil
}

// drain is one queue's loop: block for the first task, take up to
// MaxBatch, execute, repeat. On Close it fails the remaining backlog
// with ErrClosed; on a shrink (closing) it executes the full backlog —
// preserving every admitted task's effects — and then exits.
func (q *Queues) drain(wq *workerQ, w int) {
	defer q.wg.Done()
	defer close(wq.done)
	for {
		wq.mu.Lock()
		for len(wq.items) == 0 && !q.closed.Load() && !wq.closing {
			wq.fill.Wait()
		}
		if q.closed.Load() {
			rest := wq.items
			wq.items = nil
			wq.mu.Unlock()
			for _, t := range rest {
				t.Resolve(ErrClosed)
				wq.load.Add(-1)
			}
			q.finish(len(rest))
			return
		}
		if wq.closing && len(wq.items) == 0 {
			// Shrink exit: the backlog has fully executed (admitted
			// tasks resolved, their batches committed) — only now may
			// the queue disappear.
			wq.mu.Unlock()
			return
		}
		n := len(wq.items)
		if n > q.cfg.MaxBatch {
			n = q.cfg.MaxBatch
		}
		batch := append(wq.batch[:0], wq.items[:n]...)
		wq.items = append(wq.items[:0], wq.items[n:]...)
		wq.batches++
		if n > wq.maxBatch {
			wq.maxBatch = n
		}
		wq.space.Broadcast()
		wq.mu.Unlock()

		q.cfg.Exec(w, batch)
		for _, t := range batch {
			t.Resolve(errUnresolved) // backstop; no-op if Exec resolved
			wq.load.Add(-1)
		}
		clear(batch) // resolved tasks belong to their submitters now
		wq.batch = batch
		q.finish(n)
	}
}

// finish retires n tasks from the pending count and wakes Flush.
func (q *Queues) finish(n int) {
	if n == 0 {
		return
	}
	q.flushMu.Lock()
	q.pending -= n
	if q.pending == 0 {
		q.flushCond.Broadcast()
	}
	q.flushMu.Unlock()
}

// Flush blocks until every task accepted before the call has been
// resolved. Tasks submitted concurrently with Flush may or may not be
// covered.
func (q *Queues) Flush() {
	q.flushMu.Lock()
	for q.pending > 0 {
		q.flushCond.Wait()
	}
	q.flushMu.Unlock()
}

// Resize grows or shrinks the queue set to n. Growing appends fresh
// queues with their own drain loops; shrinking removes queues from the
// tail in the acked-work-preserving order: the queue is first
// unpublished (new submissions cannot reach it; racing stale
// submissions are rejected as overload and fail over), then its entire
// backlog executes through Exec — so every admitted task resolves and
// every durable effect its batch carries commits — and only then does
// its drain loop exit. Resize returns once every removed queue has
// fully drained. Returns ErrClosed after Close.
func (q *Queues) Resize(n int) error {
	if n < 1 {
		return fmt.Errorf("submit: resize to %d queues (want >= 1)", n)
	}
	q.resizeMu.Lock()
	defer q.resizeMu.Unlock()
	if q.closed.Load() {
		return ErrClosed
	}
	cur := q.snapshot()
	if n == len(cur) {
		return nil
	}
	if n > len(cur) {
		next := make([]*workerQ, n)
		copy(next, cur)
		for i := len(cur); i < n; i++ {
			wq := newWorkerQ()
			next[i] = wq
			q.wg.Add(1)
			go q.drain(wq, i)
		}
		q.qs.Store(&next)
		return nil
	}
	next := make([]*workerQ, n)
	copy(next, cur[:n])
	q.qs.Store(&next)
	removed := cur[n:]
	for _, wq := range removed {
		wq.mu.Lock()
		wq.closing = true
		wq.fill.Broadcast()
		wq.space.Broadcast()
		wq.mu.Unlock()
	}
	for _, wq := range removed {
		<-wq.done
	}
	return nil
}

// Close stops accepting submissions, fails the queued backlog with
// ErrClosed, waits for in-flight batches to finish, and returns. It is
// idempotent. Call Flush first for a graceful drain.
func (q *Queues) Close() {
	q.resizeMu.Lock()
	if q.closed.Swap(true) {
		q.resizeMu.Unlock()
		q.wg.Wait()
		return
	}
	for _, wq := range q.snapshot() {
		wq.mu.Lock()
		wq.fill.Broadcast()
		wq.space.Broadcast()
		wq.mu.Unlock()
	}
	q.resizeMu.Unlock()
	q.wg.Wait()
}

// QueueStats reports one worker queue's counters.
type QueueStats struct {
	// Submitted and Rejected count accepted and overload-rejected
	// submissions.
	Submitted, Rejected uint64
	// Batches is the number of executor calls; MaxBatch the largest
	// batch handed to one.
	Batches  uint64
	MaxBatch int
}

// Stats returns a snapshot of worker w's queue counters. A stale index
// maps onto the current queue set.
func (q *Queues) Stats(w int) QueueStats {
	wq, _ := at(q.snapshot(), w)
	wq.mu.Lock()
	defer wq.mu.Unlock()
	return QueueStats{
		Submitted: wq.submitted,
		Rejected:  wq.rejected,
		Batches:   wq.batches,
		MaxBatch:  wq.maxBatch,
	}
}
