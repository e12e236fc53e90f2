package submit

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/errtype"
)

// ErrClosed is returned by Submit after Close, and resolves any task
// still queued when Close discards the backlog.
var ErrClosed = errors.New("submit: queues closed")

// errUnresolved is the outcome published for a task whose executor
// recorded none; seeing it means the executor callback is buggy.
var errUnresolved = errors.New("submit: executor did not resolve task")

// OverloadError reports that a submission was rejected because the
// target worker's queue was full — the admission-control signal. It is
// an error value (not a panic or a block) so servers can translate it
// into a load-shedding response.
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
	return errtype.As[*OverloadError](err)
}

// Future is the pending result of a submitted task. It is resolved
// exactly once, by the queue's drain loop or by the inline run that
// executed it (RunTask). Resolution costs no channel: Settled reads an
// atomic state and Err waits on a WaitGroup; the Done channel is made
// only when Done (or Wait with a cancellable context) asks for it.
type Future struct {
	state atomic.Bool // set once the outcome is published
	wg    sync.WaitGroup
	err   error
	// mu guards done, which is made by the first Done call.
	mu   sync.Mutex
	done chan struct{}
}

// Resolved returns a future that is already resolved with err, for
// callers that must hand back a Future on a rejected submission.
func Resolved(err error) *Future {
	f := &Future{}
	f.wg.Add(1)
	f.resolve(err)
	return f
}

// reset makes f pending again, for a task being (re)submitted.
func (f *Future) reset() {
	f.state.Store(false)
	f.err, f.done = nil, nil
	f.wg.Add(1)
}

// resolve publishes the outcome. It is called once per submission, and
// its last step releases Err: a submitter that reuses the task waits in
// Err first, so nothing here touches f after the task changes hands.
func (f *Future) resolve(err error) {
	f.mu.Lock()
	f.err = err
	f.state.Store(true)
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
	f.wg.Done()
}

// Settled reports, without blocking, whether the task has been
// resolved.
func (f *Future) Settled() bool { return f.state.Load() }

// Done returns a channel closed when the task has been resolved.
func (f *Future) Done() <-chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.state.Load() {
			close(f.done)
		}
	}
	return f.done
}

// Err blocks until the task is resolved and returns its outcome.
func (f *Future) Err() error {
	f.wg.Wait()
	return f.err
}

// Wait blocks until the task resolves or ctx is done, returning the
// task's outcome or ctx.Err(). A task abandoned by Wait still executes;
// its outcome is simply no longer observed.
func (f *Future) Wait(ctx context.Context) error {
	if f.Settled() || ctx.Done() == nil {
		return f.Err()
	}
	select {
	case <-f.Done():
		return f.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Task is one queued call: an opaque payload for the executor plus the
// future producers wait on (one object, so a submission allocates the
// pair once, or not at all when the submitter owns and reuses its
// tasks; see SubmitTask).
type Task struct {
	// Ctx is the submitter's context; executors should honor it.
	Ctx context.Context
	// Payload carries the executor-defined call description.
	Payload any
	fut     Future
	// outcome is what the executor recorded; recorded says it did. Only
	// the batch's runner touches them while the task is queued.
	outcome  error
	recorded bool
}

// Future returns the task's future.
func (t *Task) Future() *Future { return &t.fut }

// Resolve records the task's outcome (first resolution wins). The
// executor calls it during Exec; the drain loop (or the inline run)
// publishes the recorded outcome to the task's future once Exec
// returns.
func (t *Task) Resolve(err error) {
	if !t.recorded {
		t.outcome, t.recorded = err, true
	}
}

// publish resolves the task's future with its recorded outcome, or with
// errUnresolved when the executor recorded none. After publish the task
// belongs to its submitter again: the caller must not touch it.
func (t *Task) publish() {
	err := t.outcome
	if !t.recorded {
		err = errUnresolved
	}
	t.outcome, t.recorded = nil, false
	t.fut.resolve(err)
}

// Config configures Queues.
type Config struct {
	// Workers is the number of queues, each with its own drain loop.
	Workers int
	// Depth is the per-worker queue capacity (default 64).
	Depth int
	// MaxBatch bounds how many tasks one executor call receives
	// (default 16).
	MaxBatch int
	// Exec executes one batch for one worker and must record every
	// task's outcome (Task.Resolve) before it returns; the drain loop,
	// or the submitter that ran the batch inline (RunTask), then
	// publishes them. Batches for the same worker never overlap;
	// batches for different workers run concurrently.
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
// pair (rather than a channel) lets Close and submits interact without
// send-on-closed races.
type workerQ struct {
	mu    sync.Mutex
	fill  sync.Cond // signaled when a task arrives or the queue closes
	items []*Task
	// batch is the drain loop's reusable batch slice (a queue's batches
	// never overlap); only the drain goroutine touches it.
	batch []*Task
	// running is set while a batch executes: one the drain loop took, or
	// an inline run's (RunTask). The drain loop takes no batch while it
	// is set, and RunTask runs inline only when it is clear. Under mu.
	running bool
	// one is the one-task batch an inline run hands Exec. It lives here,
	// not on the submitter's stack, because Exec is a func value and
	// would make a stack array escape; only the holder of running
	// touches it.
	one [1]*Task

	// load counts queued plus executing tasks; read lock-free by
	// dispatch policies.
	load atomic.Int64

	// counters (under mu)
	submitted uint64
	rejected  uint64
	batches   uint64
	inline    uint64
	maxBatch  int
}

// Queues is a set of per-worker bounded submission queues with one drain
// goroutine per worker. The queue set is fixed when New makes it. Create
// with New; safe for concurrent use.
type Queues struct {
	cfg    Config
	qs     []*workerQ
	closed atomic.Bool

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
	q := &Queues{cfg: cfg, qs: make([]*workerQ, cfg.Workers)}
	q.flushCond.L = &q.flushMu
	for i := range q.qs {
		wq := &workerQ{}
		wq.fill.L = &wq.mu
		q.qs[i] = wq
		q.wg.Add(1)
		go q.drain(wq, i)
	}
	return q, nil
}

// Workers returns the number of queues.
func (q *Queues) Workers() int { return len(q.qs) }

// Depth returns the per-worker queue capacity. Servers use it to derive
// deterministic retry hints: the capacity is configuration, not load, so
// a hint computed from it is identical across runs.
func (q *Queues) Depth() int { return q.cfg.Depth }

// Load returns worker w's current occupancy (queued + executing),
// suitable as a least-loaded dispatch signal.
func (q *Queues) Load(w int) int64 { return q.qs[w].load.Load() }

// Submit enqueues a task for worker w without blocking. It returns the
// task's future, an *OverloadError when the queue is full, or ErrClosed
// after Close. ctx is attached to the task for the executor; a ctx
// already cancelled is still accepted (the executor resolves it).
func (q *Queues) Submit(w int, ctx context.Context, payload any) (*Future, error) {
	t := &Task{Ctx: ctx, Payload: payload}
	if err := q.SubmitTask(w, t); err != nil {
		return nil, err
	}
	return &t.fut, nil
}

// SubmitTask is Submit for a task the caller owns, so that a submitter
// can reuse one task for request after request and queue without
// allocating. The caller sets t.Ctx and t.Payload; t.Future() is reset
// when the task is accepted. A refused task (the error is Submit's) is
// untouched and still the caller's. An accepted task is the queue's
// until its future resolves and the caller's again once t.Future().Err()
// has returned: only then may it be submitted again.
func (q *Queues) SubmitTask(w int, t *Task) error {
	wq := q.qs[w]
	wq.mu.Lock()
	return q.enqueue(wq, w, t)
}

// RunTask is SubmitTask, except that when worker w's queue is idle —
// open, holding no task and running no batch — the caller runs t
// itself: Exec gets t as a one-task batch on the calling goroutine, and
// t's future is settled when RunTask returns. A lone request so skips
// the two goroutine hand-offs (to the drain loop and back) that a
// queued one pays. Otherwise t queues exactly as SubmitTask queues it,
// refusals included. Either way t is accounted as a queued task (Load,
// Flush, Stats), and the queue's guarantees hold: the inline run starts
// only with nothing queued ahead of it, the drain loop takes no batch
// while it runs, and Close waits for it.
func (q *Queues) RunTask(w int, t *Task) error {
	wq := q.qs[w]
	wq.mu.Lock()
	if wq.running || len(wq.items) > 0 || q.closed.Load() {
		return q.enqueue(wq, w, t)
	}
	wq.running = true
	t.fut.reset()
	q.admit(wq)
	wq.batches++
	wq.inline++
	wq.maxBatch = max(wq.maxBatch, 1)
	wq.one[0] = t
	wq.mu.Unlock()

	q.cfg.Exec(w, wq.one[:])

	wq.mu.Lock()
	wq.one[0] = nil
	wq.running = false
	// Wake the drain loop only when it has something to do: tasks
	// queued behind this run, or a close to finish.
	if len(wq.items) > 0 || q.closed.Load() {
		wq.fill.Signal()
	}
	wq.mu.Unlock()
	wq.load.Add(-1)
	t.publish()
	q.finish(1)
	return nil
}

// enqueue queues t on worker w's queue wq, whose lock the caller holds;
// it releases the lock.
func (q *Queues) enqueue(wq *workerQ, w int, t *Task) error {
	if q.closed.Load() {
		wq.mu.Unlock()
		return ErrClosed
	}
	if depth := len(wq.items); depth >= q.cfg.Depth {
		wq.rejected++
		wq.mu.Unlock()
		return &OverloadError{Worker: w, Depth: depth, Capacity: q.cfg.Depth}
	}
	t.fut.reset()
	wq.items = append(wq.items, t)
	q.admit(wq)
	// A running batch's runner comes back for the queue by itself.
	if !wq.running {
		wq.fill.Signal()
	}
	wq.mu.Unlock()
	return nil
}

// admit accounts one accepted task on wq, whose lock the caller holds.
// It counts the task for Flush before the queue lock is released: the
// task can be taken only under that lock, so pending can never lag
// behind a resolution (which would let Flush return early).
func (q *Queues) admit(wq *workerQ) {
	wq.submitted++
	wq.load.Add(1)
	q.flushMu.Lock()
	q.pending++
	q.flushMu.Unlock()
}

// drain is one queue's loop: block for the first task, take up to
// MaxBatch, execute, repeat. It takes no batch while an inline run
// (RunTask) holds the queue, and waits for one still in flight before
// it exits. On Close it fails the remaining backlog with ErrClosed.
func (q *Queues) drain(wq *workerQ, w int) {
	defer q.wg.Done()
	wq.mu.Lock()
	for {
		for wq.running || (len(wq.items) == 0 && !q.closed.Load()) {
			wq.fill.Wait()
		}
		if q.closed.Load() {
			rest := wq.items
			wq.items = nil
			wq.mu.Unlock()
			for _, t := range rest {
				t.Resolve(ErrClosed)
				wq.load.Add(-1)
				t.publish()
			}
			q.finish(len(rest))
			return
		}
		n := len(wq.items)
		if n > q.cfg.MaxBatch {
			n = q.cfg.MaxBatch
		}
		batch := append(wq.batch[:0], wq.items[:n]...)
		wq.items = append(wq.items[:0], wq.items[n:]...)
		wq.running = true
		wq.batches++
		if n > wq.maxBatch {
			wq.maxBatch = n
		}
		wq.mu.Unlock()

		q.cfg.Exec(w, batch)
		// Each task's outcome is published once, here, and the task is
		// not touched again: its submitter may reuse it at once.
		for i, t := range batch {
			batch[i] = nil
			wq.load.Add(-1)
			t.publish()
		}
		wq.batch = batch
		q.finish(n)
		wq.mu.Lock()
		wq.running = false
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

// Close stops accepting submissions, fails the queued backlog with
// ErrClosed, waits for in-flight batches (inline runs included) to
// finish, and returns. It is idempotent. Call Flush first for a
// graceful drain.
func (q *Queues) Close() {
	if !q.closed.Swap(true) {
		for _, wq := range q.qs {
			wq.mu.Lock()
			wq.fill.Broadcast()
			wq.mu.Unlock()
		}
	}
	q.wg.Wait()
}

// QueueStats reports one worker queue's counters.
type QueueStats struct {
	// Submitted and Rejected count accepted and overload-rejected
	// submissions.
	Submitted, Rejected uint64
	// Batches is the number of executor calls; MaxBatch the largest
	// batch handed to one. Inline counts the Batches a submitter ran
	// itself (RunTask), each of one task.
	Batches  uint64
	Inline   uint64
	MaxBatch int
}

// Stats returns a snapshot of worker w's queue counters.
func (q *Queues) Stats(w int) QueueStats {
	wq := q.qs[w]
	wq.mu.Lock()
	defer wq.mu.Unlock()
	return QueueStats{
		Submitted: wq.submitted,
		Rejected:  wq.rejected,
		Batches:   wq.batches,
		Inline:    wq.inline,
		MaxBatch:  wq.maxBatch,
	}
}
