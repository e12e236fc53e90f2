package sdrad_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	sdrad "repro"
	"repro/internal/fault"
	"repro/internal/lifecycle"
)

// TestElasticResizeHammer drives batched KV-style writes from many
// goroutines while a resizer cycles the worker count and a drain fires
// mid-run (run under -race). The acked-write invariant is checked per
// call: an acknowledged write must have executed (no acked write lost),
// and a rejected write must not have (no unacked write surviving).
func TestElasticResizeHammer(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ap.Close() })

	const producers, per = 8, 120
	const total = producers * per
	applied := make([]atomic.Bool, total) // host-side "row written" flags

	// Resizer: cycle grow/shrink until the producers finish. Once the
	// mid-run drain lands, resizes are refused with a typed lifecycle
	// error — any other failure is a bug.
	stopResize := make(chan struct{})
	var resizeWG sync.WaitGroup
	resizeWG.Add(1)
	go func() {
		defer resizeWG.Done()
		sizes := []int{4, 8, 2, 6, 1, 5, 3}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			if rerr := ap.Resize(sizes[i%len(sizes)]); rerr != nil {
				if _, ok := lifecycle.IsLifecycle(rerr); !ok {
					t.Errorf("Resize(%d): %v", sizes[i%len(sizes)], rerr)
				}
			}
			runtime.Gosched()
		}
	}()

	var submitted atomic.Int64
	var drainOnce sync.Once
	drainDone := make(chan struct{})
	var acked, contained, rejected, wrong atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := p*per + i
				malicious := (p+i)%13 == 0
				// Mid-run graceful drain: admission stops, the admitted
				// backlog flushes, later writes are shed with a typed error.
				// The triggering producer waits for the drain to land so
				// its remaining submissions are guaranteed post-drain —
				// otherwise fast producers can finish before admission
				// closes and the shed class never materializes.
				if submitted.Add(1) == total/2 {
					go drainOnce.Do(func() {
						defer close(drainDone)
						if derr := ap.Drain(); derr != nil {
							t.Errorf("Drain: %v", derr)
						}
					})
					<-drainDone
				}
				err := ap.Do(context.Background(), func(c *sdrad.Ctx) error {
					b := c.MustAlloc(32)
					c.MustStore(b, make([]byte, 32))
					if malicious {
						fault.Inject(c, fault.HeapOverflow, 0)
					}
					c.MustFree(b)
					applied[id].Store(true)
					return nil
				})
				switch {
				case err == nil:
					if malicious {
						wrong.Add(1)
					} else {
						acked.Add(1)
						if !applied[id].Load() {
							t.Errorf("write %d acked but never executed", id)
						}
					}
				default:
					if _, ok := sdrad.IsViolation(err); ok {
						if !malicious {
							wrong.Add(1)
						} else {
							contained.Add(1)
						}
						break
					}
					_, overload := sdrad.IsOverload(err)
					_, lcErr := lifecycle.IsLifecycle(err)
					if overload || lcErr || errors.Is(err, sdrad.ErrAsyncClosed) {
						rejected.Add(1)
						if applied[id].Load() {
							t.Errorf("write %d rejected (%v) but executed anyway", id, err)
						}
						break
					}
					wrong.Add(1)
				}
			}
		}(p)
	}
	wg.Wait()
	close(stopResize)
	resizeWG.Wait()
	<-drainDone

	// The drained pool refuses new work without executing it — counted
	// into the rejected class so the mix assertion below cannot flake
	// even if every producer happened to finish before admission closed.
	var probeRan atomic.Bool
	perr := ap.Do(context.Background(), func(c *sdrad.Ctx) error {
		probeRan.Store(true)
		return nil
	})
	if perr == nil || probeRan.Load() {
		t.Errorf("post-drain submission not shed: err=%v ran=%v", perr, probeRan.Load())
	} else {
		_, overload := sdrad.IsOverload(perr)
		_, lcErr := lifecycle.IsLifecycle(perr)
		if !overload && !lcErr && !errors.Is(perr, sdrad.ErrAsyncClosed) {
			t.Errorf("post-drain submission failed with the wrong class: %v", perr)
		} else {
			rejected.Add(1)
		}
	}

	if wrong.Load() != 0 {
		t.Errorf("%d calls resolved with the wrong class", wrong.Load())
	}
	if acked.Load() == 0 || contained.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("degenerate mix: acked=%d contained=%d rejected=%d (want all three non-zero)",
			acked.Load(), contained.Load(), rejected.Load())
	}

	// Aggregate counters stay consistent across the resizes: retired
	// workers' work is still accounted for.
	ds := pool.DomainStats()
	if ds.Rewinds != ds.Violations+ds.Preemptions {
		t.Errorf("Rewinds = %d, want Violations+Preemptions = %d", ds.Rewinds, ds.Violations+ds.Preemptions)
	}
	if ds.Violations < uint64(contained.Load()) {
		t.Errorf("DomainStats.Violations = %d < %d contained calls", ds.Violations, contained.Load())
	}
	if ds.CleanExits == 0 || ds.Entries < ds.CleanExits {
		t.Errorf("inconsistent entries: Entries=%d CleanExits=%d", ds.Entries, ds.CleanExits)
	}
	var detections uint64
	for _, n := range pool.DetectionCounts() {
		detections += n
	}
	if detections < uint64(contained.Load()) {
		t.Errorf("DetectionCounts total = %d < %d contained calls", detections, contained.Load())
	}
}

// TestResizePreservesStats pins the stats-aggregation contract of
// shrink: DomainStats and DetectionCounts are byte-identical across the
// retirement of workers that did the work.
func TestResizePreservesStats(t *testing.T) {
	pool, err := sdrad.NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })

	for w := 0; w < 4; w++ {
		if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
			b := c.MustAlloc(16)
			c.MustFree(b)
			return nil
		}, sdrad.WithWorker(w)); err != nil {
			t.Fatalf("worker %d benign: %v", w, err)
		}
		verr := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
			fault.Inject(c, fault.HeapOverflow, 0)
			return nil
		}, sdrad.WithWorker(w))
		if _, ok := sdrad.IsViolation(verr); !ok {
			t.Fatalf("worker %d: got %v, want ViolationError", w, verr)
		}
	}

	before := pool.DomainStats()
	beforeDet := pool.DetectionCounts()
	if err := pool.Resize(2); err != nil {
		t.Fatalf("Resize(2): %v", err)
	}
	if got := pool.Workers(); got != 2 {
		t.Fatalf("Workers after shrink = %d, want 2", got)
	}
	if after := pool.DomainStats(); after != before {
		t.Errorf("DomainStats changed across shrink:\n before %+v\n after  %+v", before, after)
	}
	if afterDet := pool.DetectionCounts(); !reflect.DeepEqual(beforeDet, afterDet) {
		t.Errorf("DetectionCounts changed across shrink:\n before %v\n after  %v", beforeDet, afterDet)
	}

	// The shrunken pool still serves, and new work keeps counting.
	if err := pool.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
		t.Fatalf("Run after shrink: %v", err)
	}
	if got := pool.DomainStats(); got.Entries != before.Entries+1 {
		t.Errorf("Entries after shrink+1 run = %d, want %d", got.Entries, before.Entries+1)
	}
}

// TestElasticControllerGrowsAndShrinks drives the event-driven
// controller through one full cycle: queue pressure (overload kicks)
// doubles the worker set, then a sustained idle trickle halves it back
// to Min.
func TestElasticControllerGrowsAndShrinks(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 4, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ap.Close() })
	if err := ap.EnableElastic(sdrad.ElasticConfig{Min: 2, Max: 4, GrowDepthPerWorker: 2, ShrinkIdleEvals: 2}); err != nil {
		t.Fatal(err)
	}

	// Park one blocker on each initial worker so queued depth builds
	// behind them; overload rejections kick the controller, which sees
	// the depth and grows. The hot-added workers drain the backlog.
	gate := make(chan struct{})
	blockers := make([]*sdrad.Future, 2)
	for w := 0; w < 2; w++ {
		blockers[w] = ap.Submit(context.Background(), func(c *sdrad.Ctx) error {
			<-gate
			return nil
		}, sdrad.WithWorker(w))
	}
	grown := false
	for i := 0; i < 5000 && !grown; i++ {
		_ = ap.Submit(context.Background(), func(c *sdrad.Ctx) error { return nil })
		grown = ap.ElasticStats().MaxWorkers > 2
		runtime.Gosched()
	}
	close(gate)
	for w, f := range blockers {
		if err := f.Err(); err != nil {
			t.Fatalf("blocker %d: %v", w, err)
		}
	}
	ap.Flush()
	if st := ap.ElasticStats(); st.Grown == 0 || st.MaxWorkers <= 2 {
		t.Fatalf("controller never grew under pressure: %+v", st)
	}

	// Idle trickle: each completed batch kicks an evaluation that sees an
	// empty queue; ShrinkIdleEvals of those halve the set back to Min.
	shrunk := false
	for i := 0; i < 5000 && !shrunk; i++ {
		if err := ap.Do(context.Background(), func(c *sdrad.Ctx) error { return nil }); err != nil {
			t.Fatalf("trickle %d: %v", i, err)
		}
		st := ap.ElasticStats()
		shrunk = st.Shrunk > 0 && st.Workers == 2
	}
	if !shrunk {
		t.Fatalf("controller never shrank back to Min: %+v", ap.ElasticStats())
	}
}
