package httpd

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestElasticNetServerGrowsUnderBurst drives the frontend's elastic
// controller end to end over a real socket: with the worker held, eight
// clients pile one GET each into the queue, so the first batch the drain
// loop finishes sees a backlog of at least two calls per live parsing
// domain and the controller doubles the set, as the pool shows.
func TestElasticNetServerGrowsUnderBurst(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("home"))
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
			conn, derr := net.Dial("tcp", ln.Addr().String())
			if derr != nil {
				t.Errorf("client %d: %v", c, derr)
				return
			}
			defer func() { _ = conn.Close() }()
			if _, werr := conn.Write(BuildRequest("GET", "/", nil)); werr != nil {
				t.Errorf("client %d: %v", c, werr)
				return
			}
			var out strings.Builder
			buf := make([]byte, 4096)
			for {
				n, rerr := conn.Read(buf)
				out.Write(buf[:n])
				if rerr != nil {
					break
				}
			}
			if !strings.Contains(out.String(), "200 OK") {
				t.Errorf("client %d: %q", c, out.String())
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
		t.Fatalf("controller did not grow the pool within [2, 4] under the burst: %d domains", w)
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
