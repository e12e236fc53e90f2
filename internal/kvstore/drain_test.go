package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestDrainDurableAckedWrites is the durability regression for a drain
// under load: while concurrent clients SET unique keys through the
// batched submission layer, a graceful drain fires mid-run. Every batch
// an acked write rode in WAL-commits before its queue closes, so after
// reopening the stores from disk exactly the acked keys are present —
// none lost, and no shed (unacked) write surviving.
func TestDrainDurableAckedWrites(t *testing.T) {
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
