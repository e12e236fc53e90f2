package submit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoExec resolves every task with nil and records batches.
type echoExec struct {
	mu      sync.Mutex
	batches [][]int // payloads per batch, in execution order
}

func (e *echoExec) exec(w int, batch []*Task) {
	ids := make([]int, len(batch))
	for i, t := range batch {
		ids[i] = t.Payload.(int)
		t.Resolve(nil)
	}
	e.mu.Lock()
	e.batches = append(e.batches, ids)
	e.mu.Unlock()
}

func TestSubmitResolvesInFIFOOrder(t *testing.T) {
	e := &echoExec{}
	q, err := New(Config{Workers: 1, Depth: 128, MaxBatch: 8, Exec: e.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var futs []*Future
	for i := 0; i < 50; i++ {
		f, err := q.Submit(0, context.Background(), i)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		futs = append(futs, f)
	}
	q.Flush()
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d unresolved after Flush", i)
		}
		if err := f.Err(); err != nil {
			t.Errorf("task %d: %v", i, err)
		}
	}
	// FIFO across batches: concatenating batch payloads gives 0..49.
	e.mu.Lock()
	defer e.mu.Unlock()
	want := 0
	for _, b := range e.batches {
		if len(b) > 8 {
			t.Errorf("batch of %d exceeds MaxBatch 8", len(b))
		}
		for _, id := range b {
			if id != want {
				t.Fatalf("execution order broken: got %d, want %d", id, want)
			}
			want++
		}
	}
	if want != 50 {
		t.Errorf("executed %d tasks, want 50", want)
	}
}

// TestBatchesCoalesce proves the drain loop actually batches: with the
// consumer blocked, everything queued behind the first task comes out in
// maximal batches.
func TestBatchesCoalesce(t *testing.T) {
	gate := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	e := &echoExec{}
	exec := func(w int, batch []*Task) {
		once.Do(func() { close(first); <-gate })
		e.exec(w, batch)
	}
	q, err := New(Config{Workers: 1, Depth: 128, MaxBatch: 16, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	if _, err := q.Submit(0, context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	<-first // consumer is now stalled inside batch 1
	for i := 1; i <= 32; i++ {
		if _, err := q.Submit(0, context.Background(), i); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	close(gate)
	q.Flush()

	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.batches) != 3 {
		t.Fatalf("got %d batches %v, want 3 (1 + 16 + 16)", len(e.batches), e.batches)
	}
	if len(e.batches[1]) != 16 || len(e.batches[2]) != 16 {
		t.Errorf("stalled backlog drained as %d+%d, want 16+16", len(e.batches[1]), len(e.batches[2]))
	}
}

func TestOverloadRejection(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	exec := func(w int, batch []*Task) {
		once.Do(func() { close(started) })
		<-gate
		for _, t := range batch {
			t.Resolve(nil)
		}
	}
	q, err := New(Config{Workers: 1, Depth: 4, MaxBatch: 4, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	// One task occupies the (blocked) executor; then fill the queue.
	if _, err := q.Submit(0, context.Background(), -1); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 4; i++ {
		if _, err := q.Submit(0, context.Background(), i); err != nil {
			t.Fatalf("Submit %d within depth: %v", i, err)
		}
	}
	_, err = q.Submit(0, context.Background(), 99)
	o, ok := IsOverload(err)
	if !ok {
		t.Fatalf("Submit over depth = %v, want *OverloadError", err)
	}
	if o.Worker != 0 || o.Capacity != 4 || o.Depth != 4 {
		t.Errorf("OverloadError = %+v, want worker 0 depth 4/4", o)
	}
	if st := q.Stats(0); st.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", st.Rejected)
	}
	close(gate)
	q.Flush()
}

func TestCloseFailsBacklogAndRejectsNewSubmits(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	exec := func(w int, batch []*Task) {
		once.Do(func() { close(started) })
		<-gate
		for _, t := range batch {
			t.Resolve(nil)
		}
	}
	q, err := New(Config{Workers: 1, Depth: 8, MaxBatch: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(0, context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := q.Submit(0, context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Order matters for determinism: make Close mark the queues closed
	// while the executor is still stalled on batch 1, so the drain loop
	// cannot start a second batch with the queued task before it sees
	// the close.
	closed := make(chan struct{})
	go func() { q.Close(); close(closed) }()
	for !q.closed.Load() {
		runtime.Gosched()
	}
	close(gate)
	<-closed
	if err := queued.Err(); !errors.Is(err, ErrClosed) {
		t.Errorf("backlog task resolved with %v, want ErrClosed", err)
	}
	if _, err := q.Submit(0, context.Background(), 2); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

// TestUnresolvedTaskBackstop: an executor that forgets to resolve must
// not hang producers.
func TestUnresolvedTaskBackstop(t *testing.T) {
	q, err := New(Config{Workers: 1, Exec: func(w int, batch []*Task) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	f, err := q.Submit(0, context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Err(); !errors.Is(err, errUnresolved) {
		t.Errorf("Err = %v, want errUnresolved backstop", err)
	}
}

func TestFutureWaitHonorsContext(t *testing.T) {
	gate := make(chan struct{})
	q, err := New(Config{Workers: 1, Exec: func(w int, batch []*Task) {
		<-gate
		for _, t := range batch {
			t.Resolve(nil)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	f, err := q.Submit(0, context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait with cancelled ctx = %v, want context.Canceled", err)
	}
	close(gate)
	if err := f.Err(); err != nil {
		t.Errorf("abandoned task still executed, Err = %v", err)
	}
}

// TestConcurrentSubmitFlushHammer drives many producers across several
// workers under -race: every accepted task resolves, per-worker order
// holds, and Flush observes completion.
func TestConcurrentSubmitFlushHammer(t *testing.T) {
	const workers, producers, perProducer = 4, 8, 200
	type rec struct {
		mu   sync.Mutex
		seen map[string]bool
		last map[int]int // worker -> last sequence per producer key
	}
	r := &rec{seen: make(map[string]bool)}
	exec := func(w int, batch []*Task) {
		r.mu.Lock()
		for _, t := range batch {
			r.seen[t.Payload.(string)] = true
			t.Resolve(nil)
		}
		r.mu.Unlock()
	}
	q, err := New(Config{Workers: workers, Depth: 1 << 16, MaxBatch: 32, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var wg sync.WaitGroup
	var accepted atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				w := (p + i) % workers
				if _, err := q.Submit(w, context.Background(), fmt.Sprintf("p%d-i%d", p, i)); err == nil {
					accepted.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	q.Flush()
	r.mu.Lock()
	defer r.mu.Unlock()
	if int64(len(r.seen)) != accepted.Load() {
		t.Errorf("executed %d tasks, accepted %d", len(r.seen), accepted.Load())
	}
}

// TestSubmitTaskOutcome: a caller-owned task reused from submission to
// submission gets each submission's own outcome, published once by the
// drain loop — errUnresolved when the executor records none — and the
// outcome reaches a future whether its Done channel was taken before
// the resolution or after it.
func TestSubmitTaskOutcome(t *testing.T) {
	gate := make(chan struct{})
	q, err := New(Config{Workers: 1, Exec: func(_ int, batch []*Task) {
		<-gate
		for _, t := range batch {
			if err, ok := t.Payload.(error); ok {
				t.Resolve(err)
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var task Task
	submit := func(payload any) *Future {
		task.Payload = payload
		if err := q.SubmitTask(0, &task); err != nil {
			t.Fatal(err)
		}
		if task.Future().Settled() {
			t.Fatal("a queued task reports itself settled")
		}
		return task.Future()
	}

	t.Run("an executor that records nothing", func(t *testing.T) {
		f := submit(nil)
		gate <- struct{}{}
		if err := f.Err(); !errors.Is(err, errUnresolved) {
			t.Fatalf("Err = %v, want errUnresolved", err)
		}
	})
	t.Run("Done taken before resolution", func(t *testing.T) {
		want := errors.New("before")
		f := submit(want)
		done := f.Done()
		select {
		case <-done:
			t.Fatal("Done closed before the task ran")
		default:
		}
		gate <- struct{}{}
		<-done
		if !f.Settled() {
			t.Error("Done closed but the future is not settled")
		}
		if err := f.Err(); err != want {
			t.Fatalf("Err = %v, want %v", err, want)
		}
	})
	t.Run("Done taken after resolution", func(t *testing.T) {
		want := errors.New("after")
		f := submit(want)
		gate <- struct{}{}
		if err := f.Err(); err != want {
			t.Fatalf("Err = %v, want %v", err, want)
		}
		select {
		case <-f.Done():
		default:
			t.Fatal("Done taken after resolution is open")
		}
		if err := f.Wait(context.Background()); err != want {
			t.Fatalf("Wait = %v, want %v", err, want)
		}
	})
}

// onRunTask reports whether the calling goroutine is inside RunTask:
// an executor that asks this learns whether its batch runs inline, on
// the submitter's goroutine, or on the drain loop.
func onRunTask() bool {
	buf := make([]byte, 16<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "(*Queues).RunTask(")
}

// TestRunTaskRunsOnCaller: on an idle queue RunTask executes the task
// itself — Exec runs on the calling goroutine before RunTask returns,
// the future is settled — and the task is accounted as one queued
// task in a one-task batch.
func TestRunTaskRunsOnCaller(t *testing.T) {
	var ran, inline bool
	q, err := New(Config{Workers: 2, Exec: func(w int, batch []*Task) {
		ran, inline = true, onRunTask()
		if w != 1 || len(batch) != 1 {
			t.Errorf("Exec(%d, %d tasks), want worker 1 and one task", w, len(batch))
		}
		for _, t := range batch {
			t.Resolve(nil)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var task Task
	if err := q.RunTask(1, &task); err != nil {
		t.Fatal(err)
	}
	if !ran || !inline || !task.Future().Settled() {
		t.Fatalf("after RunTask returned: executed %v, on the caller %v, settled %v; want all three", ran, inline, task.Future().Settled())
	}
	if err := task.Future().Err(); err != nil {
		t.Errorf("Err = %v", err)
	}
	want := QueueStats{Submitted: 1, Batches: 1, Inline: 1, MaxBatch: 1}
	if st := q.Stats(1); st != want {
		t.Errorf("Stats = %+v, want %+v", st, want)
	}
	if l := q.Load(1); l != 0 {
		t.Errorf("Load = %d after the run, want 0", l)
	}
}

// TestRunTaskQueuesBehindBusyQueue: a queue that runs a batch, or holds
// a task its drain loop has not yet taken, does not run RunTask's task
// inline: the task queues and runs after the work ahead of it, in FIFO
// order, on the drain loop.
func TestRunTaskQueuesBehindBusyQueue(t *testing.T) {
	type run struct {
		ids    []int
		inline bool
	}
	newQueues := func(t *testing.T, gate chan struct{}) (*Queues, *[]run) {
		var runs []run
		var mu sync.Mutex
		q, err := New(Config{Workers: 1, MaxBatch: 8, Exec: func(_ int, batch []*Task) {
			r := run{inline: onRunTask()}
			for _, task := range batch {
				if id := task.Payload.(int); id == 0 && gate != nil {
					<-gate
				}
				r.ids = append(r.ids, task.Payload.(int))
				task.Resolve(nil)
			}
			mu.Lock()
			runs = append(runs, r)
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(q.Close)
		return q, &runs
	}
	check := func(t *testing.T, q *Queues, runs *[]run) {
		q.Flush()
		var order []int
		for _, r := range *runs {
			if r.inline {
				t.Errorf("batch %v ran inline on a busy queue", r.ids)
			}
			order = append(order, r.ids...)
		}
		if fmt.Sprint(order) != "[0 1 2]" {
			t.Errorf("executed %v, want [0 1 2]", order)
		}
		if st := q.Stats(0); st.Inline != 0 || st.Submitted != 3 {
			t.Errorf("Stats = %+v, want 3 submitted, none inline", st)
		}
	}

	t.Run("a batch in Exec", func(t *testing.T) {
		gate := make(chan struct{})
		q, runs := newQueues(t, gate)
		// Cleanups run last-in first-out: a failed run releases the
		// batch in Exec before Close waits for it.
		release := sync.OnceFunc(func() { close(gate) })
		t.Cleanup(release)
		var tasks [3]Task
		for i := range tasks {
			tasks[i].Payload = i
		}
		if err := q.SubmitTask(0, &tasks[0]); err != nil {
			t.Fatal(err)
		}
		for q.Load(0) != 1 || q.Stats(0).Batches != 1 {
			runtime.Gosched() // until the drain loop holds task 0 in Exec
		}
		if err := q.RunTask(0, &tasks[1]); err != nil {
			t.Fatal(err)
		}
		if tasks[1].Future().Settled() {
			t.Fatal("RunTask settled its task while a batch was in Exec")
		}
		if err := q.SubmitTask(0, &tasks[2]); err != nil {
			t.Fatal(err)
		}
		release()
		check(t, q, runs)
	})
	t.Run("a task not yet taken", func(t *testing.T) {
		// One P: the drain loop woken by the first submission cannot run
		// before this goroutine blocks, so the task is still queued.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		q, runs := newQueues(t, nil)
		var tasks [3]Task
		for i := range tasks {
			tasks[i].Payload = i
		}
		if err := q.SubmitTask(0, &tasks[0]); err != nil {
			t.Fatal(err)
		}
		if err := q.RunTask(0, &tasks[1]); err != nil {
			t.Fatal(err)
		}
		if err := q.SubmitTask(0, &tasks[2]); err != nil {
			t.Fatal(err)
		}
		check(t, q, runs)
	})
}

// TestRunTaskCloseAndFlushWait: an inline run inside Exec holds up
// Close — the backend behind Exec must outlive its last batch — and is
// covered by Flush.
func TestRunTaskCloseAndFlushWait(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	var returned atomic.Bool
	q, err := New(Config{Workers: 1, Exec: func(_ int, batch []*Task) {
		close(entered)
		<-gate
		for _, t := range batch {
			t.Resolve(nil)
		}
		returned.Store(true)
	}})
	if err != nil {
		t.Fatal(err)
	}
	var task Task
	ran := make(chan error, 1)
	go func() { ran <- q.RunTask(0, &task) }()
	<-entered
	flushed, closed := make(chan bool, 1), make(chan bool, 1)
	go func() { q.Flush(); flushed <- returned.Load() }()
	go func() { q.Close(); closed <- returned.Load() }()
	select {
	case ok := <-flushed:
		t.Error("Flush returned while the inline run was inside Exec")
		flushed <- ok
	case ok := <-closed:
		t.Error("Close returned while the inline run was inside Exec")
		closed <- ok
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-ran; err != nil {
		t.Fatalf("RunTask = %v", err)
	}
	if !<-flushed || !<-closed {
		t.Error("Flush or Close returned before Exec did")
	}
	if err := task.Future().Err(); err != nil {
		t.Errorf("the inline task resolved with %v, want its own outcome", err)
	}
}

// TestRunTaskHammer mixes RunTask and SubmitTask from several producers
// over two queues while Flush runs, under -race. Exec checks that no two batches of one
// worker overlap and that each producer's tasks on a worker run in the
// order it submitted them; every accepted task must run and resolve
// exactly once.
func TestRunTaskHammer(t *testing.T) {
	const producers, perProducer, window = 6, 400, 4
	type job struct{ producer, seq int }
	var busy [2]atomic.Int32
	var inline atomic.Int64 // batches run on their submitter's goroutine
	var mu sync.Mutex
	runs := make(map[job]int)
	last := make(map[[2]int]int) // (producer, worker) -> last seq run
	q, err := New(Config{Workers: 2, Depth: 1 << 12, MaxBatch: 8, Exec: func(w int, batch []*Task) {
		if busy[w].Add(1) != 1 {
			t.Errorf("worker %d: two batches overlap", w)
		}
		if onRunTask() {
			inline.Add(1)
		}
		runtime.Gosched()
		mu.Lock()
		for _, task := range batch {
			j := task.Payload.(job)
			if k := [2]int{j.producer, w}; last[k] >= j.seq+1 {
				t.Errorf("worker %d ran producer %d's task %d after its task %d", w, j.producer, j.seq, last[k]-1)
			} else {
				last[k] = j.seq + 1
			}
			runs[j]++
			task.Resolve(nil)
		}
		mu.Unlock()
		busy[w].Add(-1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			q.Flush()
			runtime.Gosched()
		}
	}()

	var wg sync.WaitGroup
	accepted := make([][]int, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var tasks [window]Task
			var queued [window]bool
			for seq := 0; seq < perProducer; seq++ {
				task := &tasks[seq%window]
				if queued[seq%window] {
					if err := task.Future().Err(); err != nil {
						t.Errorf("producer %d: a task resolved with %v", p, err)
					}
				}
				task.Payload = job{p, seq}
				w, run := seq*7+p, (seq+p)%3 != 0
				err := ErrClosed
				for i := 0; i < 3 && err != nil; i++ {
					if run {
						err = q.RunTask((w+i)%q.Workers(), task)
					} else {
						err = q.SubmitTask((w+i)%q.Workers(), task)
					}
					if _, over := IsOverload(err); err != nil && !over {
						t.Errorf("producer %d: %v", p, err)
						return
					}
				}
				queued[seq%window] = err == nil
				if err == nil {
					accepted[p] = append(accepted[p], seq)
				}
				if run && err == nil {
					// A RunTask caller waits for its task next, as Do does.
					if err := task.Future().Err(); err != nil {
						t.Errorf("producer %d: a task resolved with %v", p, err)
					}
					queued[seq%window] = false
				}
			}
			for i := range tasks {
				if queued[i] {
					if err := tasks[i].Future().Err(); err != nil {
						t.Errorf("producer %d: a task resolved with %v", p, err)
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	q.Flush()

	mu.Lock()
	defer mu.Unlock()
	n := 0
	for p, seqs := range accepted {
		for _, seq := range seqs {
			if runs[job{p, seq}] != 1 {
				t.Errorf("producer %d's task %d ran %d times, want once", p, seq, runs[job{p, seq}])
			}
		}
		n += len(seqs)
	}
	if len(runs) != n {
		t.Errorf("%d tasks ran, %d were accepted", len(runs), n)
	}
	if inline.Load() == 0 {
		t.Error("no task ran inline: the hammer never reached an idle queue")
	}
	t.Logf("%d tasks accepted, %d of them run inline", n, inline.Load())
}
