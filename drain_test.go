package sdrad_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sdrad "repro"
)

// TestPoolDrainUnderSustainedAsyncTraffic pins the two halves of the
// hardened Pool.Drain contract against a still-serving async layer:
// the drain terminates even though the layer keeps feeding batches
// (they are shed with ErrPoolClosed instead of extending the drain
// forever), and once Drain has returned no batched call executes.
func TestPoolDrainUnderSustainedAsyncTraffic(t *testing.T) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pool.Close() })
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 4, MaxInflight: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ap.Close() })

	var executed atomic.Int64
	var executedAfterDrain atomic.Int64
	var drainReturned atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = ap.Do(context.Background(), func(c *sdrad.Ctx) error {
					if drainReturned.Load() {
						executedAfterDrain.Add(1)
					}
					executed.Add(1)
					return nil
				})
			}
		}()
	}
	for i := 0; i < 1_000_000 && executed.Load() == 0; i++ {
		runtime.Gosched()
	}
	if executed.Load() == 0 {
		t.Fatal("no batched call ever executed")
	}

	done := make(chan error, 1)
	go func() { done <- pool.Drain() }()
	select {
	case derr := <-done:
		drainReturned.Store(true)
		if derr != nil {
			t.Fatalf("Drain: %v", derr)
		}
	case <-time.After(60 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("Pool.Drain never terminated under sustained async batch traffic:\n%s",
			buf[:runtime.Stack(buf, true)])
	}

	// The drained pool sheds fresh batches without executing them.
	var ran atomic.Bool
	perr := ap.Do(context.Background(), func(c *sdrad.Ctx) error {
		ran.Store(true)
		return nil
	})
	if !errors.Is(perr, sdrad.ErrPoolClosed) {
		t.Errorf("post-drain batched call: err = %v, want ErrPoolClosed", perr)
	}
	if ran.Load() {
		t.Error("post-drain batched call executed")
	}

	close(stop)
	wg.Wait()
	if n := executedAfterDrain.Load(); n != 0 {
		t.Errorf("%d batched calls executed after Drain returned", n)
	}
}
