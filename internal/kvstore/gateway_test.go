package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/workload"
)

func testGateway(t *testing.T, lim gateway.Limits) *gateway.Gateway {
	t.Helper()
	table, err := gateway.NewTable(map[string]string{
		"alice": "tok-alice",
		"mal":   "tok-mal",
	})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	gw, err := gateway.New(gateway.Config{Table: table, Limits: lim})
	if err != nil {
		t.Fatalf("gateway.New: %v", err)
	}
	return gw
}

// TestPoolCloseIdempotent pins the double-close fix: the second Close
// must not re-run the shard closes (which would double-close the
// released stores) and must report the first call's outcome.
func TestPoolCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
		Persist: &PersistConfig{Dir: dir},
	}
	pool, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if resp := pool.HandleContext(context.Background(), 0, setReq("k", "v")); !resp.OK || resp.Err != nil {
		t.Fatalf("set: %+v", resp)
	}
	if err := pool.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := pool.Close(); err != nil {
			t.Fatalf("repeat Close %d: %v", i, err)
		}
	}
}

// TestNetServerCloseIdempotent pins the same property one layer up: the
// batched NetServer's Close closes the queues and the pool exactly
// once, and every later call reports the first outcome.
func TestNetServerCloseIdempotent(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
		Persist: &PersistConfig{Dir: dir},
	}
	pool, err := NewPool(core.DefaultConfig(), cfg, 2, 16<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	n, err := NewBatchedNetServerPool(pool, nil, 64, 8)
	if err != nil {
		t.Fatalf("NewBatchedNetServerPool: %v", err)
	}
	if resp := n.Do(0, setReq("k", "v")); !resp.OK || resp.Err != nil {
		t.Fatalf("set: %+v", resp)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := n.Close(); err != nil {
			t.Fatalf("repeat Close %d: %v", i, err)
		}
	}
	// The pool was closed through the NetServer; closing it directly
	// again must also be a memoized no-op.
	if err := pool.Close(); err != nil {
		t.Fatalf("pool Close after server Close: %v", err)
	}
}

// TestBatchedOverloadRetryHintBytes pins the exact wire bytes of a
// batched-path overload rejection. The hint derives from the configured
// queue depth, never from which queue rejected or its momentary
// occupancy, so two identically configured servers render identical
// rejections — the byte-identity campaign traces rely on.
func TestBatchedOverloadRetryHintBytes(t *testing.T) {
	render := func() string {
		pool, err := NewPool(core.DefaultConfig(),
			ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}, 1, 16<<20)
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		// maxInflight 1 over 1 shard: queue depth 1.
		n, err := NewBatchedNetServerPool(pool, nil, 1, 8)
		if err != nil {
			t.Fatalf("NewBatchedNetServerPool: %v", err)
		}
		defer func() {
			if cerr := n.Close(); cerr != nil {
				t.Errorf("close: %v", cerr)
			}
		}()
		// Hold the shard lock so the drain loop blocks mid-batch, then
		// fill the queue: one request executing (blocked), one queued.
		sh := pool.Shards[0]
		sh.Lock()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp := n.Do(i, setReq(fmt.Sprintf("k%d", i), "v"))
				if resp.Err != nil {
					t.Errorf("admitted request %d failed: %v", i, resp.Err)
				}
			}(i)
			// Admissions are sequential: wait for the first task to be
			// taken by the drain loop (Batches=1) before the second fills
			// the queue (Submitted=2).
			want := uint64(i + 1)
			for n.Queues().Stats(0).Submitted != want || n.Queues().Stats(0).Batches != 1 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		// Queue full: the third submission sheds with the hint.
		req := setReq("k-shed", "v")
		resp := n.Do(9, req)
		sh.Unlock()
		wg.Wait()
		var hint *gateway.RetryHintError
		if !errors.As(resp.Err, &hint) {
			t.Fatalf("overload response err = %v, want *gateway.RetryHintError", resp.Err)
		}
		var buf bytes.Buffer
		if err := WriteResponse(&buf, req, resp); err != nil {
			t.Fatalf("WriteResponse: %v", err)
		}
		return buf.String()
	}
	a, b := render(), render()
	want := "SERVER_ERROR busy retry-after-cycles=1048576\r\n"
	if a != want {
		t.Fatalf("overload bytes = %q, want %q", a, want)
	}
	if a != b {
		t.Fatalf("overload bytes differ across runs: %q vs %q", a, b)
	}
}

// TestDrainHammer fires a graceful drain while concurrent writers hit
// all four shards, then checks the drain contract both ways: every
// acknowledged write is recovered from disk, and no admission after
// Drain returns succeeds. Run with -race in CI.
func TestDrainHammer(t *testing.T) {
	dir := t.TempDir()
	cfg := ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
		Persist: &PersistConfig{Dir: dir, SnapshotEvery: 4},
	}
	pool, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	n, err := NewBatchedNetServerPool(pool, nil, 64, 8)
	if err != nil {
		t.Fatalf("NewBatchedNetServerPool: %v", err)
	}

	const writers = 8
	var mu sync.Mutex
	acked := make(map[string]string)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-k%d", wr, seq)
				val := fmt.Sprintf("v%d-%d", wr, seq)
				resp := n.Do(wr, setReq(key, val))
				if resp.Err == nil && resp.OK {
					mu.Lock()
					acked[key] = val
					mu.Unlock()
				}
			}
		}(wr)
	}

	// Let the writers build up traffic, then drain mid-stream.
	for {
		mu.Lock()
		enough := len(acked) >= 200
		mu.Unlock()
		if enough {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	close(stop)
	wg.Wait()

	// Post-drain admission must fail with a typed error on both paths.
	if resp := n.Do(99, setReq("late", "x")); resp.Err == nil {
		t.Fatal("post-drain batched write was admitted")
	}
	resp := pool.HandleContext(context.Background(), 99, setReq("late-direct", "x"))
	if !errors.Is(resp.Err, ErrDrained) {
		t.Fatalf("post-drain direct write err = %v, want ErrDrained", resp.Err)
	}
	if err := n.Drain(); err != nil {
		t.Fatalf("repeat Drain: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close after Drain: %v", err)
	}

	// Recover from disk: every acked write must be present, byte for
	// byte. (The drained pool released its stores, so reopening is
	// safe.)
	pool2, err := NewPool(core.DefaultConfig(), cfg, 4, 32<<20)
	if err != nil {
		t.Fatalf("reopen pool: %v", err)
	}
	defer func() {
		if cerr := pool2.Close(); cerr != nil {
			t.Errorf("close recovered pool: %v", cerr)
		}
	}()
	recovered := make(map[string]string)
	for i := 0; i < pool2.Workers(); i++ {
		for k, v := range dumpOrFatal(t, pool2.Shards[i].Srv.Cache()) {
			recovered[k] = string(v)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	t.Logf("drain hammer: %d acked writes, %d recovered keys", len(acked), len(recovered))
	for k, v := range acked {
		got, ok := recovered[k]
		if !ok {
			t.Fatalf("acked write %s lost after drain", k)
		}
		if got != v {
			t.Fatalf("acked write %s recovered as %q, want %q", k, got, v)
		}
	}
}

// startGatewayNet spins up a TCP server fronted by a gateway.
func startGatewayNet(t *testing.T, gw *gateway.Gateway) (string, *NetServer, func()) {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(),
		ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	ns := serveQueued(t, pool, nil)
	ns.SetGateway(gw)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), ns, func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close listener: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// TestNetServerGatewayEndToEnd drives the tenant flow over real TCP:
// auth required, uniform rejection on bad credentials, admission after
// auth, deterministic rate-limit rejections, and the health command.
func TestNetServerGatewayEndToEnd(t *testing.T) {
	gw := testGateway(t, gateway.Limits{Burst: 2, RefillEvery: 100, MaxInflight: 8})
	addr, _, stop := startGatewayNet(t, gw)
	defer stop()

	// Data before auth is refused.
	if out := talk(t, addr, "set k 0 0 1\r\nv\r\nquit\r\n"); out != "CLIENT_ERROR auth required\r\n" {
		t.Fatalf("unauthenticated set: %q", out)
	}
	// Bad credentials: one uniform line, no hint which part failed.
	if out := talk(t, addr, "auth nope\r\nquit\r\n"); out != "CLIENT_ERROR unauthorized\r\n" {
		t.Fatalf("bad auth: %q", out)
	}
	// Good credentials bind the connection; data flows.
	out := talk(t, addr, "auth tok-alice\r\nset k 0 0 5\r\nhello\r\nget k\r\nquit\r\n")
	want := "OK\r\nSTORED\r\nVALUE k 0 5\r\nhello\r\nEND\r\n"
	if out != want {
		t.Fatalf("authed session: %q, want %q", out, want)
	}
	// Burst 2 with a glacial refill: the third data command of this
	// session (alice's 4th overall arrival, tokens spent) is throttled
	// with the typed rendering.
	out = talk(t, addr, "auth tok-alice\r\nget k\r\nget k\r\nquit\r\n")
	if !strings.Contains(out, "SERVER_ERROR gateway: tenant alice rate limited, retry-after-cycles=") {
		t.Fatalf("throttle transcript: %q", out)
	}
	// Health command renders shard and tenant state.
	out = talk(t, addr, "health\r\nquit\r\n")
	for _, frag := range []string{"STAT state ok", "STAT draining 0", "STAT workers 2", "STAT shard_0 ok", "STAT tenant_alice "} {
		if !strings.Contains(out, frag) {
			t.Fatalf("health output missing %q: %q", frag, out)
		}
	}
}

// TestNetServerGatewayDrain verifies the wire behavior of a drain:
// in-flight tenants finish, later requests get the typed draining
// rejection, and health flips to draining/drained.
func TestNetServerGatewayDrain(t *testing.T) {
	gw := testGateway(t, gateway.Limits{Burst: 100, RefillEvery: 1, MaxInflight: 8})
	addr, ns, stop := startGatewayNet(t, gw)
	defer stop()

	if out := talk(t, addr, "auth tok-alice\r\nset k 0 0 5\r\nhello\r\nquit\r\n"); !strings.Contains(out, "STORED") {
		t.Fatalf("pre-drain set: %q", out)
	}
	if err := ns.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	out := talk(t, addr, "auth tok-alice\r\nget k\r\nquit\r\n")
	if !strings.Contains(out, "SERVER_ERROR gateway: draining") {
		t.Fatalf("post-drain transcript: %q", out)
	}
	out = talk(t, addr, "health\r\nquit\r\n")
	if !strings.Contains(out, "STAT draining 1") {
		t.Fatalf("health after drain: %q", out)
	}
}

// TestGatewayIsolationDirect pins the per-tenant isolation property at
// the handler level: a hostile tenant hammering exploit payloads
// changes nothing about the benign tenant's admission decisions or
// outcomes.
func TestGatewayIsolationDirect(t *testing.T) {
	run := func(hostile bool) []string {
		gw := testGateway(t, gateway.Limits{Burst: 4, RefillEvery: 2, MaxInflight: 8})
		pool, err := NewPool(core.DefaultConfig(),
			ServerConfig{Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond}, 2, 16<<20)
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		var outcomes []string
		for i := 0; i < 30; i++ {
			if hostile {
				// Interleave the attacker's traffic 2:1.
				for j := 0; j < 2; j++ {
					tk, aerr := gw.Admit("mal")
					if aerr != nil {
						continue
					}
					req := workload.Request{Op: workload.OpSet, Key: fmt.Sprintf("m%d-%d", i, j),
						Value: []byte(AttackMarker), Malicious: true}
					resp := pool.HandleContext(context.Background(), 1, req)
					tk.Done(resp.Contained, false)
				}
			}
			tk, aerr := gw.Admit("alice")
			if aerr != nil {
				outcomes = append(outcomes, "rejected:"+aerr.Error())
				continue
			}
			resp := pool.HandleContext(context.Background(), 0, setReq(fmt.Sprintf("a%d", i), "v"))
			tk.Done(resp.Contained, false)
			if resp.Err != nil {
				outcomes = append(outcomes, "err")
			} else {
				outcomes = append(outcomes, "ok")
			}
		}
		return outcomes
	}
	solo, contended := run(false), run(true)
	if len(solo) != len(contended) {
		t.Fatalf("outcome counts differ: %d vs %d", len(solo), len(contended))
	}
	for i := range solo {
		if solo[i] != contended[i] {
			t.Fatalf("benign tenant outcome %d diverged: %q (solo) vs %q (with hostile tenant)", i, solo[i], contended[i])
		}
	}
}
