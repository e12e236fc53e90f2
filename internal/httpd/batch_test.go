package httpd

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/workload"
)

// TestServeBatchMatchesSerial drives the same mixed benign/malformed/
// attack request stream through ServeContext and ServeBatch and asserts
// identical per-request statuses and containment.
func TestServeBatchMatchesSerial(t *testing.T) {
	build := func() *Server {
		srv, err := NewServer(core.NewSystem(core.DefaultConfig()),
			Config{Mode: ModeSDRaD, InterArrival: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		srv.HandleFunc("/", []byte("<html>index</html>"))
		srv.HandleFunc("/a", []byte("aaaa"))
		return srv
	}
	raws := func() [][]byte {
		gen, err := workload.NewHTTP(workload.HTTPConfig{Seed: 3, Paths: 8})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, 80)
		for i := range out {
			switch {
			case i%17 == 4:
				out[i] = BuildRequest("GET", "/", map[string]string{AttackHeader: "1"})
			case i%11 == 7:
				out[i] = []byte("BOGUS nonsense\r\n\r\n")
			default:
				out[i] = gen.Next().Raw
			}
		}
		return out
	}

	classify := func(r Response) string {
		return fmt.Sprintf("%d/%v", r.Status, r.Contained)
	}

	serialSrv := build()
	var serial []string
	for i, raw := range raws() {
		serial = append(serial, classify(serialSrv.Serve(i%8, raw)))
	}

	batchSrv := build()
	var batched []string
	rs := raws()
	for i := 0; i < len(rs); i += 16 {
		batch := make([]BatchRequest, 16)
		for j := range batch {
			batch[j] = BatchRequest{ClientID: (i + j) % 8, Raw: rs[i+j]}
		}
		for _, resp := range batchSrv.ServeBatch(batch) {
			batched = append(batched, classify(resp))
		}
	}
	for i := range serial {
		if serial[i] != batched[i] {
			t.Errorf("request %d: serial %q vs batched %q", i, serial[i], batched[i])
		}
	}
	s1, s2 := serialSrv.Stats(), batchSrv.Stats()
	if s1.Violations != s2.Violations || s1.Requests != s2.Requests {
		t.Errorf("stats diverged: serial %+v vs batched %+v", s1, s2)
	}
}

// TestBatchedHTTPNetServerEndToEnd: the pipelined TCP path serves,
// contains exploits, keeps serving under concurrent clients, and
// answers every request of a burst queued behind held workers once
// they are released.
func TestBatchedHTTPNetServerEndToEnd(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD, Workers: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>home</html>"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	defer func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		ns.Close()
	}()
	addr := ln.Addr().String()

	if out := httpGet(t, addr, nil); !strings.Contains(out, "200 OK") || !strings.Contains(out, "home") {
		t.Fatalf("GET / through batched server:\n%s", out)
	}
	if out := httpGet(t, addr, map[string]string{AttackHeader: "1"}); !strings.Contains(out, "400") {
		t.Fatalf("exploit not contained as 400:\n%s", out)
	}
	if out := httpGet(t, addr, nil); !strings.Contains(out, "200 OK") {
		t.Fatalf("service down after contained exploit:\n%s", out)
	}
	if st := pool.Stats(); st.Violations == 0 {
		t.Error("no contained violation recorded")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errCh <- err
				return
			}
			defer func() { _ = conn.Close() }()
			if _, err := conn.Write(BuildRequest("GET", "/", nil)); err != nil {
				errCh <- err
				return
			}
			buf := make([]byte, 4096)
			var out strings.Builder
			for {
				n, rerr := conn.Read(buf)
				out.Write(buf[:n])
				if rerr != nil {
					break
				}
			}
			if !strings.Contains(out.String(), "200 OK") {
				errCh <- fmt.Errorf("concurrent GET: %q", out.String())
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// A burst against held workers: each GET queues (the drain loops
	// block on the worker locks), and each is answered 200 once the
	// workers are released.
	for _, sh := range pool.Shards {
		sh.Lock()
	}
	var burst [8]serve.Pending[[]byte, Response]
	for c := range burst {
		burst[c] = ns.Submit(c, BuildRequest("GET", "/", nil))
	}
	for _, sh := range pool.Shards {
		sh.Unlock()
	}
	for c := range burst {
		if resp := ns.Wait(&burst[c]); resp.Status != 200 {
			t.Errorf("burst client %d: %+v, want 200", c, resp)
		}
	}
}
