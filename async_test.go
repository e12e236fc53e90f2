package sdrad_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	sdrad "repro"
	"repro/internal/fault"
)

func newAsync(t *testing.T, workers int, cfg sdrad.AsyncConfig) (*sdrad.AsyncPool, *sdrad.Pool) {
	t.Helper()
	pool, err := sdrad.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	ap, err := sdrad.NewAsyncPool(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ap.Close() })
	return ap, pool
}

// requests sums the pool's per-worker dispatch counters: the calls the
// async layer handed it to execute.
func requests(pool *sdrad.Pool) uint64 {
	var n uint64
	for _, r := range pool.Stats().Requests {
		n += r
	}
	return n
}

func TestAsyncPoolSubmitFlush(t *testing.T) {
	ap, pool := newAsync(t, 2, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 256})

	const n = 100
	var done atomic.Int64
	futs := make([]*sdrad.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
			p := c.MustAlloc(64)
			c.MustStore(p, make([]byte, 64))
			c.MustFree(p)
			done.Add(1)
			return nil
		})
	}
	ap.Flush()
	for i, f := range futs {
		select {
		case <-f.Done():
		default:
			t.Fatalf("future %d unresolved after Flush", i)
		}
		if err := f.Err(); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	if done.Load() != n {
		t.Errorf("%d calls executed, want %d", done.Load(), n)
	}
	if got := requests(pool); got != n {
		t.Errorf("pool dispatched %d calls, want %d", got, n)
	}
	if ds := pool.DomainStats(); ds.Entries == 0 || ds.Entries > n {
		t.Errorf("%d domain entries, want within [1, %d]", ds.Entries, n)
	}
}

// TestAsyncPoolBatchesCoalesce: with the consumers busy, queued calls
// coalesce into multi-call batches whose domain entries are amortized.
func TestAsyncPoolBatchesCoalesce(t *testing.T) {
	ap, pool := newAsync(t, 1, sdrad.AsyncConfig{MaxBatch: 16, MaxInflight: 256})

	gate := make(chan struct{})
	first := ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
		<-gate // stall the single worker inside batch 1
		return nil
	})
	const n = 32
	for i := 0; i < n; i++ {
		ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
			p := c.MustAlloc(32)
			c.MustFree(p)
			return nil
		})
	}
	close(gate)
	ap.Flush()
	if err := first.Err(); err != nil {
		t.Fatal(err)
	}
	// 33 calls, batches of up to 16: far fewer entries than calls.
	if ds := pool.DomainStats(); ds.Entries >= n {
		t.Errorf("%d domain entries for %d calls, want amortization", ds.Entries, n+1)
	}
}

func TestAsyncPoolOverloadBackpressure(t *testing.T) {
	ap, pool := newAsync(t, 1, sdrad.AsyncConfig{MaxBatch: 4, MaxInflight: 4})

	gate := make(chan struct{})
	blocker := ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
		<-gate
		return nil
	})
	// The queue bound is 4 (MaxInflight/workers); with the worker stalled
	// on the blocker, flooding 16 submissions must trip admission control
	// regardless of whether the blocker still occupies a queue slot.
	accepted, overloaded := 0, 0
	var futs []*sdrad.Future
	for i := 0; i < 16; i++ {
		f := ap.Submit(context.Background(), func(c *sdrad.Ctx) error { return nil })
		select {
		case <-f.Done():
			if _, ok := sdrad.IsOverload(f.Err()); ok {
				overloaded++
				continue
			}
		default:
		}
		accepted++
		futs = append(futs, f)
	}
	if overloaded == 0 {
		t.Error("no submission rejected with OverloadError at MaxInflight 4")
	}
	if accepted == 0 {
		t.Error("every submission rejected; queue should hold up to its bound")
	}
	close(gate)
	ap.Flush()
	if err := blocker.Err(); err != nil {
		t.Errorf("blocker: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(); err != nil {
			t.Errorf("accepted call %d: %v", i, err)
		}
	}
	// The blocker and every accepted call executed; no rejected one did.
	if got := requests(pool); got != uint64(accepted)+1 {
		t.Errorf("pool dispatched %d calls, want %d accepted + the blocker", got, accepted)
	}
}

// TestAsyncPoolFaultIsolation: violations and budget blowups inside
// coalesced batches resolve per call, exactly as serial execution would.
func TestAsyncPoolFaultIsolation(t *testing.T) {
	ap, _ := newAsync(t, 2, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 512})

	const n = 120
	futs := make([]*sdrad.Future, n)
	for i := 0; i < n; i++ {
		switch i % 10 {
		case 3:
			futs[i] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
				fault.Inject(c, fault.UseAfterFree, 0)
				return nil
			})
		case 7:
			futs[i] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
				p := c.MustAlloc(64)
				for j := 0; j < 100_000; j++ {
					_ = c.MustLoad64(p)
				}
				c.MustFree(p)
				return nil
			}, sdrad.WithCycleBudget(50_000))
		default:
			futs[i] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
				p := c.MustAlloc(48)
				c.MustStore(p, make([]byte, 48))
				c.MustFree(p)
				return nil
			})
		}
	}
	ap.Flush()
	for i, f := range futs {
		err := f.Err()
		switch i % 10 {
		case 3:
			if _, ok := sdrad.IsViolation(err); !ok {
				t.Errorf("call %d: %v, want ViolationError", i, err)
			}
		case 7:
			if _, ok := sdrad.IsBudget(err); !ok {
				t.Errorf("call %d: %v, want BudgetError", i, err)
			}
		default:
			if err != nil {
				t.Errorf("benign call %d poisoned: %v", i, err)
			}
		}
	}
}

func TestAsyncPoolRunnerAndWorkerAffinity(t *testing.T) {
	ap, pool := newAsync(t, 4, sdrad.AsyncConfig{})

	var r sdrad.Runner = ap // compile-time + runtime Runner use
	if err := r.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Pin 50 calls to worker 2; its request counter gets all of them.
	before := pool.Stats().Requests[2]
	for i := 0; i < 50; i++ {
		if err := ap.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }, sdrad.WithWorker(2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.Stats().Requests[2] - before; got != 50 {
		t.Errorf("worker 2 served %d pinned calls, want 50", got)
	}
}

func TestAsyncPoolCloseSemantics(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}
	f := ap.Submit(context.Background(), func(c *sdrad.Ctx) error { return nil })
	if err := f.Err(); !errors.Is(err, sdrad.ErrAsyncClosed) {
		t.Errorf("Submit after Close = %v, want ErrAsyncClosed", err)
	}
	// The wrapped pool stays open.
	if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
		t.Errorf("wrapped pool unusable after async Close: %v", err)
	}
}

// TestAsyncPoolConcurrentHammer drives mixed traffic from many
// goroutines (run under -race): outcomes stay per-call correct and the
// layer neither loses nor double-resolves futures.
func TestAsyncPoolConcurrentHammer(t *testing.T) {
	ap, _ := newAsync(t, 4, sdrad.AsyncConfig{MaxBatch: 16, MaxInflight: 1 << 14})

	const producers, per = 8, 150
	var wg sync.WaitGroup
	var benignOK, contained, wrong atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				malicious := (p+i)%11 == 0
				err := ap.Do(context.Background(), func(c *sdrad.Ctx) error {
					b := c.MustAlloc(32)
					c.MustStore(b, make([]byte, 32))
					if malicious {
						fault.Inject(c, fault.HeapOverflow, 0)
					}
					c.MustFree(b)
					return nil
				})
				switch {
				case malicious:
					if _, ok := sdrad.IsViolation(err); ok {
						contained.Add(1)
					} else {
						wrong.Add(1)
					}
				case err == nil:
					benignOK.Add(1)
				default:
					wrong.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	ap.Flush()
	if wrong.Load() != 0 {
		t.Errorf("%d calls resolved with the wrong class", wrong.Load())
	}
	if contained.Load() == 0 || benignOK.Load() == 0 {
		t.Errorf("degenerate mix: benign=%d contained=%d", benignOK.Load(), contained.Load())
	}
}
