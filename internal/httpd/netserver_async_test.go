package httpd

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/submit"
)

// TestRespondAsyncClosedQueue pins a regression sdradlint's errclass
// analyzer surfaced: a request admitted to the submission queues but
// resolved by Close (so the drain loop never filled its response) was
// answered with a zero-value Response — status 0, no error — instead of
// a 503 carrying the typed ErrClosed.
func TestRespondAsyncClosedQueue(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("ok"))
	n, err := NewBatchedNetServerPool(pool, nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the worker lock so the drain loop blocks mid-batch with one
	// request executing and one admitted but still queued, then close
	// the queues underneath the queued one.
	raw := BuildRequest("GET", "/", nil)
	sh := pool.Shards[0]
	sh.Lock()
	resps := make([]Response, 2)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = n.Do(i, raw)
		}()
		for n.Queues().Stats(0).Submitted != uint64(i+1) || n.Queues().Stats(0).Batches != 1 {
			time.Sleep(100 * time.Microsecond)
		}
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		n.Queues().Close()
	}()
	// Probe the queues directly (a Do would block on an admitted probe):
	// a probe admitted before the flag is set never executes either —
	// the drain loop is parked on the lock until the close is visible.
	for {
		if _, perr := n.Queues().Submit(0, context.Background(), nil); errors.Is(perr, submit.ErrClosed) {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	sh.Unlock()
	wg.Wait()
	<-closed
	if resps[0].Status != 200 {
		t.Fatalf("executing request answered %+v, want 200", resps[0])
	}
	if !errors.Is(resps[1].Err, submit.ErrClosed) {
		t.Fatalf("closed-queue response carries err %v, want submit.ErrClosed", resps[1].Err)
	}
	if resps[1].Status != 503 {
		t.Fatalf("closed-queue response has status %d, want 503", resps[1].Status)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRespondAsyncFilled returns the drain loop's response verbatim on
// clean resolution.
func TestRespondAsyncFilled(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("ok"))
	n, err := NewBatchedNetServerPool(pool, nil, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := n.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	}()
	resp := n.Do(0, BuildRequest("GET", "/", nil))
	if resp.Status != 200 || string(resp.Body) != "ok" || resp.Err != nil {
		t.Fatalf("clean resolution returned %+v, want the drain loop's response", resp)
	}
}
