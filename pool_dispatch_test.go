package sdrad_test

import (
	"context"
	"sync"
	"testing"
	"time"

	sdrad "repro"
)

// TestPoolDispatchBoundedImbalance is the regression test for the
// pick/runOn occupancy race: least-loaded selection used to read the
// inflight counters before the chosen worker's counter was incremented,
// so a burst of concurrent Dos could all observe the same idle worker
// and serialize on it. With the reservation folded into the pick
// (dispatch.Acquire), N concurrent calls against an N-worker pool must
// land on N distinct workers: each call holds its worker busy until all
// have entered, which is only possible with a perfectly balanced
// placement.
func TestPoolDispatchBoundedImbalance(t *testing.T) {
	const workers = 4
	pool, err := sdrad.NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = pool.Close() }()

	entered := make(chan struct{}, workers)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := pool.Do(context.Background(), func(c *sdrad.Ctx) error {
				entered <- struct{}{}
				<-release
				return nil
			})
			if err != nil {
				t.Errorf("pool.Run: %v", err)
			}
		}()
	}

	// All four must enter concurrently. A pile-up (two calls on one
	// worker) serializes behind that worker's lock and can never reach
	// four simultaneous entries — surface that as a failure, not a hang.
	timeout := time.After(30 * time.Second)
	for got := 0; got < workers; got++ {
		select {
		case <-entered:
		case <-timeout:
			close(release)
			wg.Wait()
			t.Fatalf("only %d of %d concurrent Runs entered distinct workers (dispatch pile-up)", got, workers)
		}
	}
	close(release)
	wg.Wait()

	st := pool.Stats()
	for i, n := range st.Requests {
		if n != 1 {
			t.Errorf("worker %d served %d requests, want exactly 1", i, n)
		}
	}
}
