package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/workload"
)

// TestResizeDurableAckedWrites is the durability regression for elastic
// shrink: while concurrent clients SET unique keys through the batched
// submission layer and a resizer cycles the parser worker-domain count,
// a graceful drain fires mid-run. Every batch an acked write rode in
// WAL-commits before its queue closes, so after reopening the stores
// from disk exactly the acked keys are present — none lost, and no
// shed (unacked) write surviving.
func TestResizeDurableAckedWrites(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode:    ModeSDRaD,
		Persist: &PersistConfig{Dir: dir, Fsync: false, SnapshotEvery: 8},
	}
	p, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewBatchedNetServerPool(p, nil, 256, 8)
	if err != nil {
		t.Fatal(err)
	}

	const producers, per = 6, 60
	type kv struct{ key, val string }
	var mu sync.Mutex
	acked := make(map[string]string)
	shed := make(map[string]bool)

	stopResize := make(chan struct{})
	var resizeWG sync.WaitGroup
	resizeWG.Add(1)
	go func() {
		defer resizeWG.Done()
		sizes := []int{4, 1, 6, 2, 3}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			if rerr := p.ResizeWorkers(sizes[i%len(sizes)]); rerr != nil {
				if _, ok := lifecycle.IsLifecycle(rerr); !ok {
					t.Errorf("ResizeWorkers(%d): %v", sizes[i%len(sizes)], rerr)
				}
			}
		}
	}()

	var submitted int64
	var subMu sync.Mutex
	var drainOnce sync.Once
	drainDone := make(chan struct{})
	var wg sync.WaitGroup
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w := kv{key: fmt.Sprintf("k-%d-%03d", pr, i), val: fmt.Sprintf("v-%d-%03d", pr, i)}
				subMu.Lock()
				submitted++
				fireDrain := submitted == producers*per/2
				subMu.Unlock()
				if fireDrain {
					// Mid-run graceful drain: queues flush (acked batches
					// WAL-commit), then the shards take a final snapshot
					// and release the stores.
					go drainOnce.Do(func() {
						defer close(drainDone)
						if derr := srv.Drain(); derr != nil {
							t.Errorf("Drain: %v", derr)
						}
					})
				}
				resp := srv.Do(pr, workload.Request{
					Op: workload.OpSet, Key: w.key, Value: []byte(w.val),
				})
				mu.Lock()
				if resp.OK && resp.Err == nil {
					acked[w.key] = w.val
				} else {
					shed[w.key] = true
				}
				mu.Unlock()
			}
		}(pr)
	}
	wg.Wait()
	close(stopResize)
	resizeWG.Wait()
	<-drainDone
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(acked) == 0 || len(shed) == 0 {
		t.Fatalf("degenerate mix: acked=%d shed=%d (want both non-zero)", len(acked), len(shed))
	}

	// Reopen the per-shard stores and check exact ack alignment.
	p2, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() {
		if cerr := p2.Close(); cerr != nil {
			t.Errorf("close reopened pool: %v", cerr)
		}
	}()
	for key, val := range acked {
		resp := p2.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpGet, Key: key})
		if !resp.OK || resp.Err != nil {
			t.Fatalf("acked key %q lost after recovery: %+v", key, resp)
		}
		if !bytes.Equal(resp.Value, []byte(val)) {
			t.Fatalf("acked key %q = %q after recovery, want %q", key, resp.Value, val)
		}
	}
	for key := range shed {
		if resp := p2.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpGet, Key: key}); resp.OK && resp.Err == nil {
			t.Fatalf("shed key %q survived recovery with value %q", key, resp.Value)
		}
	}
}

// TestElasticNetServerGrowsUnderBurst drives the frontend's elastic
// controller end to end over a real socket: with the shard held, eight
// clients pile one SET each into the queue, so the first batch the drain
// loop finishes sees a backlog of at least two calls per live worker and
// the controller doubles the parser worker set, as the pool shows.
func TestElasticNetServerGrowsUnderBurst(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ns.EnableElastic(1, 4); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()

	const clients = 8
	sh := pool.Shards[0]
	sh.Lock()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, terr := talkErr(ln.Addr().String(), fmt.Sprintf("set k%d 0 0 1\r\nv\r\nquit\r\n", c))
			if terr != nil || out != "STORED\r\n" {
				t.Errorf("client %d: %q, %v", c, out, terr)
			}
		}()
	}
	for ns.Queues().Stats(0).Submitted != clients {
		time.Sleep(100 * time.Microsecond)
	}
	sh.Unlock()
	wg.Wait()

	// The controller starts at one worker and needs 16 idle evaluations
	// to shrink, more than the burst's batches: the pool still holds
	// what it grew to.
	if w := pool.ShardWorkers(); w < 2 || w > 4 {
		t.Fatalf("controller did not grow the pool within [2, 4] under the burst: %d workers", w)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
}
