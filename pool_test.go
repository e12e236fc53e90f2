package sdrad_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	sdrad "repro"
)

// TestPoolConcurrentMixedWorkload hammers a 4-worker pool from 8
// goroutines with a mixed benign/attack workload (run under -race). It
// asserts that every attack is contained, every benign request succeeds,
// and no cross-worker state leaks: the per-worker detection counts sum
// exactly to the aggregate, which equals the number of attacks sent.
func TestPoolConcurrentMixedWorkload(t *testing.T) {
	const (
		workers    = 4
		goroutines = 8
		iterations = 120
		attackMod  = 6 // every 6th request is an attack
	)
	pool, err := sdrad.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := pool.Close(); cerr != nil {
			t.Errorf("Close: %v", cerr)
		}
	}()

	var (
		wg        sync.WaitGroup
		attacks   atomic.Uint64
		contained atomic.Uint64
		failures  atomic.Uint64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := []byte("goroutine payload data 0123456789abcdef")
			for i := 0; i < iterations; i++ {
				attack := i%attackMod == g%attackMod
				if attack {
					attacks.Add(1)
				}
				err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
					p := c.MustAlloc(len(payload))
					c.MustStore(p, payload)
					if attack {
						// Wild store outside any mapping: a contained
						// memory-safety violation.
						c.MustStore64(0xbad000, uint64(g))
					}
					buf := make([]byte, len(payload))
					c.MustLoad(p, buf)
					c.MustFree(p)
					return nil
				})
				switch _, isViolation := sdrad.IsViolation(err); {
				case attack && isViolation:
					contained.Add(1)
				case attack:
					t.Errorf("goroutine %d iter %d: attack not contained: %v", g, i, err)
					failures.Add(1)
				case err != nil:
					t.Errorf("goroutine %d iter %d: benign request failed: %v", g, i, err)
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d requests misbehaved", failures.Load())
	}
	if contained.Load() != attacks.Load() {
		t.Fatalf("contained %d of %d attacks", contained.Load(), attacks.Load())
	}

	// Aggregation invariant: per-worker counts sum to the aggregate, and
	// the aggregate matches the attacks sent.
	agg := pool.DetectionCounts()
	var aggTotal uint64
	for _, n := range agg {
		aggTotal += n
	}
	if aggTotal != attacks.Load() {
		t.Errorf("aggregate detections = %d, want %d", aggTotal, attacks.Load())
	}
	var shardTotal uint64
	perWorker := pool.WorkerDetectionCounts()
	if len(perWorker) != workers {
		t.Fatalf("WorkerDetectionCounts len = %d, want %d", len(perWorker), workers)
	}
	for _, counts := range perWorker {
		for _, n := range counts {
			shardTotal += n
		}
	}
	if shardTotal != aggTotal {
		t.Errorf("per-worker detections sum to %d, aggregate says %d", shardTotal, aggTotal)
	}

	// Every dispatched request is accounted to exactly one worker.
	var dispatched uint64
	for _, n := range pool.Stats().Requests {
		dispatched += n
	}
	if want := uint64(goroutines * iterations); dispatched != want {
		t.Errorf("dispatched = %d, want %d", dispatched, want)
	}

	// Each worker machine carries exactly its one warm domain.
	if ms := pool.MemoryStats(); ms.Domains != workers {
		t.Errorf("aggregate Domains = %d, want %d", ms.Domains, workers)
	}
	if pool.TotalVirtualTime() < pool.VirtualTime() {
		t.Error("total virtual time below parallel makespan")
	}
}

// TestPoolDiscardOnReturn verifies request isolation on the warm domain:
// state written by one Run is discarded before the next Run on the same
// worker.
func TestPoolDiscardOnReturn(t *testing.T) {
	pool, err := sdrad.NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	var first sdrad.Addr
	if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
		first = c.MustAlloc(64)
		c.MustStore(first, []byte("secret from request 1"))
		return nil
	}, sdrad.WithWorker(0)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		if p != first {
			t.Errorf("second Run alloc = %#x, want recycled %#x", p, first)
		}
		buf := make([]byte, 64)
		c.MustLoad(p, buf)
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("stale byte %#x at offset %d leaked across Runs", b, i)
			}
		}
		return nil
	}, sdrad.WithWorker(0)); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFallbackAndClose covers the alternate action path and
// post-Close behavior.
func TestPoolFallbackAndClose(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	fellBack := false
	err = pool.Do(context.Background(),
		func(c *sdrad.Ctx) error { c.MustStore64(0xbad000, 1); return nil },
		sdrad.WithFallback(func(v *sdrad.ViolationError) error { fellBack = true; return nil }),
	)
	if err != nil || !fellBack {
		t.Errorf("fallback: err=%v fellBack=%v", err, fellBack)
	}

	appErr := errors.New("app error")
	if err := pool.Do(context.Background(), func(*sdrad.Ctx) error { return appErr }); !errors.Is(err, appErr) {
		t.Errorf("app error = %v, want passthrough", err)
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := pool.Do(context.Background(), func(*sdrad.Ctx) error { return nil }); !errors.Is(err, sdrad.ErrPoolClosed) {
		t.Errorf("run after close = %v, want ErrPoolClosed", err)
	}
}

// TestPoolDefaultSize checks the NumCPU default and worker wrap-around.
func TestPoolDefaultSize(t *testing.T) {
	pool, err := sdrad.NewPool(0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	if pool.Workers() < 1 {
		t.Errorf("Workers = %d", pool.Workers())
	}
	// WithWorker wraps modulo the pool size, including negative workers
	// (a signed key hash is a natural caller).
	ctx := context.Background()
	if err := pool.Do(ctx, func(*sdrad.Ctx) error { return nil }, sdrad.WithWorker(pool.Workers()+1)); err != nil {
		t.Errorf("WithWorker wrap: %v", err)
	}
	if err := pool.Do(ctx, func(*sdrad.Ctx) error { return nil }, sdrad.WithWorker(-3)); err != nil {
		t.Errorf("WithWorker negative: %v", err)
	}
}

// TestPoolDomainStatsSurviveClose pins the teardown-accounting
// contract: DomainStats after Close reports the counters snapshotted at
// teardown, not a silent all-zero aggregate.
func TestPoolDomainStatsSurviveClose(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	before := pool.DomainStats()
	if before.Entries != 6 || before.CleanExits != 6 {
		t.Fatalf("pre-close stats: %+v", before)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	after := pool.DomainStats()
	if after != before {
		t.Errorf("stats changed across Close: before %+v, after %+v", before, after)
	}
}
