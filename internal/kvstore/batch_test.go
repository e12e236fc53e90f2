package kvstore

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/submit"
	"repro/internal/workload"
)

// classifyResp reduces a Response to its outcome class, for
// batched==serial comparisons.
func classifyResp(r Response) string {
	switch {
	case r.Contained:
		return "contained"
	case r.Err != nil:
		return "error"
	case r.OK:
		return fmt.Sprintf("ok:%x", r.Value)
	default:
		return "miss"
	}
}

// TestHandleBatchMatchesSerial drives the same mixed benign/attack
// request stream through HandleContext and HandleBatch and asserts
// identical per-request outcomes and identical surviving cache state.
func TestHandleBatchMatchesSerial(t *testing.T) {
	build := func() (*Server, *Cache) {
		sys := core.NewSystem(core.DefaultConfig())
		cache, err := NewCache(sys, 1, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		return srv, cache
	}
	requests := func() []workload.Request {
		gen, err := workload.NewKV(workload.KVConfig{Seed: 7, Keys: 64, ValueSize: 48})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]workload.Request, 96)
		for i := range reqs {
			reqs[i] = gen.Next()
			if i%13 == 5 {
				reqs[i].Malicious = true
			}
		}
		return reqs
	}

	serialSrv, serialCache := build()
	serialOut := make([]string, 0, 96)
	for i, req := range requests() {
		serialOut = append(serialOut, classifyResp(serialSrv.Handle(i%8, req)))
	}

	batchSrv, batchCache := build()
	batchOut := make([]string, 0, 96)
	reqs := requests()
	for i := 0; i < len(reqs); i += 16 {
		batch := make([]BatchRequest, 16)
		for j := range batch {
			batch[j] = BatchRequest{ClientID: (i + j) % 8, Req: reqs[i+j]}
		}
		for _, resp := range batchSrv.HandleBatch(batch) {
			batchOut = append(batchOut, classifyResp(resp))
		}
	}

	for i := range serialOut {
		if serialOut[i] != batchOut[i] {
			t.Errorf("request %d: serial %q vs batched %q", i, serialOut[i], batchOut[i])
		}
	}
	if serialCache.Items() != batchCache.Items() || serialCache.Bytes() != batchCache.Bytes() {
		t.Errorf("survivor cache diverged: serial %d items/%d bytes vs batched %d items/%d bytes",
			serialCache.Items(), serialCache.Bytes(), batchCache.Items(), batchCache.Bytes())
	}
	sst, bst := serialSrv.Stats(), batchSrv.Stats()
	if sst.Violations != bst.Violations {
		t.Errorf("contained violations: serial %d vs batched %d", sst.Violations, bst.Violations)
	}
	if sst.Requests != bst.Requests {
		t.Errorf("request counts: serial %d vs batched %d", sst.Requests, bst.Requests)
	}
}

// TestHandleBatchAmortizesEntries: a batch of benign requests from one
// client uses one domain entry, not one per request.
func TestHandleBatchAmortizesEntries(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchRequest, 16)
	for i := range batch {
		batch[i] = BatchRequest{ClientID: 3, Req: workload.Request{Op: workload.OpSet, Key: workload.Key(i), Value: []byte("v")}}
	}
	for i, resp := range srv.HandleBatch(batch) {
		if resp.Err != nil || !resp.OK {
			t.Fatalf("request %d: %+v", i, resp)
		}
	}
	// All 16 requests map to worker 3%4; its domain saw one entry.
	d, err := sys.Domain(srv.cfg.FirstWorkerUDI + core.UDI(3%len(srv.workers)))
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != 1 {
		t.Errorf("batch of 16 used %d domain entries, want 1", st.Entries)
	}
}

// startBatchedNet spins up the pipelined (submission-queue) TCP server.
func startBatchedNet(t *testing.T, workers, maxInflight, maxBatch int) (string, *Pool, func()) {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, workers, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, maxInflight, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), pool, func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close listener: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		ns.Close()
	}
}

// TestBatchedNetServerEndToEnd exercises the full pipelined path over
// real sockets: set/get round trip, contained wire attack, and
// concurrent clients pipelining through the queues.
func TestBatchedNetServerEndToEnd(t *testing.T) {
	addr, pool, stop := startBatchedNet(t, 2, 256, 8)
	defer stop()

	out := talk(t, addr, "set k1 0 0 5\r\nhello\r\nget k1\r\nquit\r\n")
	if !strings.Contains(out, "STORED") || !strings.Contains(out, "hello") {
		t.Fatalf("round trip through batched server failed:\n%s", out)
	}
	// Contained attack: SERVER_ERROR for the attacker, service survives.
	out = talk(t, addr, "set bomb 0 0 14\r\n!!exploit-data\r\nquit\r\n")
	if !strings.Contains(out, "SERVER_ERROR") {
		t.Fatalf("attack not rejected:\n%s", out)
	}
	out = talk(t, addr, "get k1\r\nquit\r\n")
	if !strings.Contains(out, "hello") {
		t.Fatalf("service lost state after contained attack:\n%s", out)
	}
	if st := pool.Stats(); st.Violations == 0 {
		t.Error("no contained violation recorded")
	}

	// Concurrent pipelined clients.
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var script strings.Builder
			for i := 0; i < 20; i++ {
				fmt.Fprintf(&script, "set c%d-k%d 0 0 2\r\nvv\r\n", c, i)
			}
			script.WriteString("quit\r\n")
			resp, err := talkErr(addr, script.String())
			if err != nil {
				errCh <- err
				return
			}
			if got := strings.Count(resp, "STORED"); got != 20 {
				errCh <- fmt.Errorf("client %d: %d STORED, want 20", c, got)
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestBatchedNetServerOverloadSheds: with a tiny admission bound and a
// stalled consumer there is no unbounded queueing — excess requests get
// SERVER_ERROR. Exercised at the pool layer via the NetServer handle.
func TestBatchedNetServerOverload(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD}, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewBatchedNetServerPool(pool, nil, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	// Saturate the single shard from many goroutines; with depth 2 and
	// batches of 2 some must be shed under a sustained burst.
	var wg sync.WaitGroup
	var overloads, ok int
	var mu sync.Mutex
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := workload.Request{Op: workload.OpSet, Key: "hot", Value: []byte("v")}
			resp := ns.Do(g, req)
			mu.Lock()
			defer mu.Unlock()
			if resp.Err != nil {
				if _, is := submit.IsOverload(resp.Err); is {
					overloads++
					return
				}
				t.Errorf("client %d: unexpected error %v", g, resp.Err)
				return
			}
			ok++
		}(g)
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request admitted")
	}
	t.Logf("admitted %d, shed %d of 32 burst requests", ok, overloads)
}
