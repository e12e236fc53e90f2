package httpd

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// startNetWith serves ns on a real TCP listener and returns its address
// plus a shutdown func.
func startNetWith(t *testing.T, ns *NetServer) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

func newPool(t *testing.T, workers int) *Pool {
	t.Helper()
	p, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD, Workers: 2}, workers)
	if err != nil {
		t.Fatal(err)
	}
	p.HandleFunc("/", []byte("<html>pooled</html>"))
	return p
}

// TestPoolParallelMixedTraffic hammers the pool from many goroutines
// with benign and exploit requests (run under -race): every benign
// request gets 200, every exploit is contained as 400, and the
// aggregated stats account for all of it.
func TestPoolParallelMixedTraffic(t *testing.T) {
	const goroutines, iterations = 8, 60
	p := newPool(t, 4)
	benign := BuildRequest("GET", "/", nil)
	evil := BuildRequest("GET", "/", map[string]string{AttackHeader: "pwn"})

	var wg sync.WaitGroup
	var attacks, failures atomic.Uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if i%10 == g%10 {
					attacks.Add(1)
					resp := p.Serve(g, evil)
					if resp.Status != 400 || !resp.Contained {
						t.Errorf("goroutine %d: exploit -> %d contained=%v err=%v",
							g, resp.Status, resp.Contained, resp.Err)
						failures.Add(1)
					}
					continue
				}
				resp := p.Serve(g, benign)
				if resp.Status != 200 {
					t.Errorf("goroutine %d: benign -> %d err=%v", g, resp.Status, resp.Err)
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
	if st.Requests != goroutines*iterations {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*iterations)
	}
	if st.Violations != attacks.Load() {
		t.Errorf("Violations = %d, want %d", st.Violations, attacks.Load())
	}
	if st.Crashes != 0 {
		t.Errorf("Crashes = %d", st.Crashes)
	}
	if p.TotalVirtualTime() < p.VirtualTime() {
		t.Error("total virtual time below parallel makespan")
	}
}

// TestPoolNetServerEndToEnd drives the pooled TCP path.
func TestPoolNetServerEndToEnd(t *testing.T) {
	p := newPool(t, 3)
	addr, stop := startNetWith(t, serveQueued(t, p, nil))
	defer stop()

	out := httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") || !strings.Contains(out, "<html>pooled</html>") {
		t.Errorf("response: %q", out)
	}
	out = httpGet(t, addr, map[string]string{AttackHeader: "1"})
	if !strings.HasPrefix(out, "HTTP/1.1 400") {
		t.Errorf("attack response: %q", out)
	}
	// Still serving after containment.
	out = httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200") {
		t.Errorf("post-attack response: %q", out)
	}
	if st := p.Stats(); st.Violations != 1 {
		t.Errorf("Violations = %d, want 1", st.Violations)
	}
}

func TestPoolDefaults(t *testing.T) {
	p, err := NewPool(core.DefaultConfig(), Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Workers() != 1 {
		t.Errorf("Workers = %d, want 1", p.Workers())
	}
	if m := p.Shards[0].Srv.cfg.Mode; m != ModeSDRaD {
		t.Errorf("Mode = %v", m)
	}
}
