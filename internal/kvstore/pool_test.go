package kvstore

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func newKVPool(t *testing.T, workers int) *Pool {
	t.Helper()
	p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, workers, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPoolKeyAffinity verifies the consistency invariant: every
// operation on a key lands on the same shard, so a SET is visible to a
// later GET regardless of which client sends it.
func TestPoolKeyAffinity(t *testing.T) {
	p := newKVPool(t, 4)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("key-%d", i)
		val := []byte(fmt.Sprintf("value-%d", i))
		if resp := p.HandleContext(context.Background(), i, workload.Request{Op: workload.OpSet, Key: key, Value: val}); resp.Err != nil || !resp.OK {
			t.Fatalf("set %s: %+v", key, resp)
		}
		// A different client reads it back.
		resp := p.HandleContext(context.Background(), i+1000, workload.Request{Op: workload.OpGet, Key: key})
		if resp.Err != nil || !resp.OK || string(resp.Value) != string(val) {
			t.Fatalf("get %s: %+v", key, resp)
		}
	}
	if got := p.CacheItems(); got != 64 {
		t.Errorf("CacheItems = %d, want 64", got)
	}
	if p.CacheBytes() == 0 {
		t.Error("CacheBytes = 0")
	}
}

// TestPoolParallelMixedWorkload hammers the pool from many goroutines
// (run under -race): benign traffic on per-goroutine keys plus periodic
// attacks, all contained, with shard counters summing to the aggregate.
func TestPoolParallelMixedWorkload(t *testing.T) {
	const goroutines, iterations = 8, 50
	p := newKVPool(t, 4)

	var wg sync.WaitGroup
	var attacks, failures atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%10)
				if i%9 == g%9 {
					attacks.Add(1)
					resp := p.HandleContext(context.Background(), g, workload.Request{Op: workload.OpSet, Key: key,
						Value: []byte("boom"), Malicious: true})
					if !resp.Contained {
						t.Errorf("goroutine %d: attack not contained: %+v", g, resp)
						failures.Add(1)
					}
					continue
				}
				val := []byte(fmt.Sprintf("g%d-v%d", g, i))
				if resp := p.HandleContext(context.Background(), g, workload.Request{Op: workload.OpSet, Key: key, Value: val}); resp.Err != nil {
					t.Errorf("goroutine %d set: %v", g, resp.Err)
					failures.Add(1)
					continue
				}
				resp := p.HandleContext(context.Background(), g, workload.Request{Op: workload.OpGet, Key: key})
				if resp.Err != nil || !resp.OK || string(resp.Value) != string(val) {
					t.Errorf("goroutine %d get %s: err=%v ok=%v val=%q",
						g, key, resp.Err, resp.OK, resp.Value)
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d requests misbehaved", failures.Load())
	}
	st := p.Stats()
	if st.Violations != attacks.Load() {
		t.Errorf("aggregate Violations = %d, want %d", st.Violations, attacks.Load())
	}
	if st.Crashes != 0 {
		t.Errorf("Crashes = %d", st.Crashes)
	}
	// Per-shard violation counts sum to the aggregate.
	var shardSum uint64
	for _, sh := range p.Shards {
		shardSum += sh.Srv.Stats().Violations
	}
	if shardSum != st.Violations {
		t.Errorf("shard violations sum to %d, aggregate says %d", shardSum, st.Violations)
	}
}

// TestPoolShardScaling is the pool's scaling figure: one seeded stream,
// served serially, finishes in less virtual time (the slowest shard's
// clock) at every step from 1 to 8 shards, and 4 shards run it at least
// 3x in parallel. The 8-shard ratio stays below 8 because keys hash
// unevenly across shards.
func TestPoolShardScaling(t *testing.T) {
	const requests = 4000
	var prev time.Duration
	for _, shards := range []int{1, 2, 4, 8} {
		p, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond}, shards, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 5000})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < requests; i++ {
			if resp := p.HandleContext(context.Background(), i%8, gen.Next()); resp.Err != nil {
				t.Fatalf("%d shards, request %d: %v", shards, i, resp.Err)
			}
		}
		makespan, total := p.Shards.VirtualTime(), p.Shards.TotalVirtualTime()
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		ratio := float64(total) / float64(makespan)
		t.Logf("%d shards: makespan %v, total/makespan %.2f", shards, makespan, ratio)
		if prev != 0 && makespan >= prev {
			t.Errorf("%d shards: makespan %v, not below %v", shards, makespan, prev)
		}
		if shards == 4 && ratio < 3 {
			t.Errorf("4 shards: total/makespan %.2f, want >= 3", ratio)
		}
		prev = makespan
	}
}

// TestPoolNetServerEndToEnd drives the pooled TCP path: concurrent
// clients, a wire attack, and aggregated stats.
func TestPoolNetServerEndToEnd(t *testing.T) {
	p := newKVPool(t, 3)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := serveQueued(t, p, nil)
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	addr := ln.Addr().String()
	defer func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	const clients = 6
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			key, val := fmt.Sprintf("pk%d", c), fmt.Sprintf("pv-%d", c)
			script := fmt.Sprintf("set %s 0 0 %d\r\n%s\r\nget %s\r\nquit\r\n", key, len(val), val, key)
			out, err := talkErr(addr, script)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			want := fmt.Sprintf("STORED\r\nVALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(val), val)
			if out != want {
				errs <- fmt.Errorf("client %d: %q != %q", c, out, want)
				return
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}

	// A wire attack is contained and shows up in aggregated stats.
	evil := fmt.Sprintf("set x 0 0 %d\r\n%s\r\nquit\r\n", len(AttackMarker), AttackMarker)
	if out := talk(t, addr, evil); !strings.HasPrefix(out, "SERVER_ERROR") {
		t.Errorf("attack response = %q", out)
	}
	out := talk(t, addr, "get pk0\r\nstats\r\nquit\r\n")
	if !strings.Contains(out, "VALUE pk0 0 4\r\npv-0") {
		t.Errorf("victim data lost: %q", out)
	}
	if !strings.Contains(out, "STAT contained_violations 1") {
		t.Errorf("stats missing containment: %q", out)
	}
	if !strings.Contains(out, "STAT crashes 0") {
		t.Errorf("unexpected crash: %q", out)
	}
}
