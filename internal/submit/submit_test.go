package submit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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

func TestSubmitWaitBlocksInsteadOfRejecting(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var resolved atomic.Int64
	exec := func(w int, batch []*Task) {
		select {
		case <-started:
		default:
			close(started)
		}
		<-gate
		for _, t := range batch {
			t.Resolve(nil)
			resolved.Add(1)
		}
	}
	q, err := New(Config{Workers: 1, Depth: 2, MaxBatch: 2, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	if _, err := q.Submit(0, context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(0, context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := q.SubmitWait(0, context.Background(), 3)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("SubmitWait returned %v before space freed", err)
	default:
	}
	close(gate) // executor drains, space frees, SubmitWait lands
	if err := <-done; err != nil {
		t.Fatalf("SubmitWait: %v", err)
	}
	q.Flush()
	if n := resolved.Load(); n != 4 {
		t.Errorf("resolved %d tasks, want 4", n)
	}
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
