package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/lifecycle/lifecycletest"
	"repro/internal/submit"
)

// echo is the smallest protocol a Frontend can serve: one line in, the
// upper-cased line (or "ERR <err>") out. It stands in for kvstore and
// httpd so the frontend is tested without either.
type echo struct {
	f               *Frontend[string, string]
	workers         atomic.Int64
	drained, closed atomic.Int64
}

func newEcho(shards int) *echo {
	e := &echo{}
	e.workers.Store(1)
	e.f = New(Backend[string, string]{
		Name: "echo",
		ServeConn: func(id int, conn io.ReadWriter) {
			sc := bufio.NewScanner(conn)
			for sc.Scan() {
				if _, err := fmt.Fprintln(conn, e.f.Do(id, sc.Text())); err != nil {
					return
				}
			}
		},
		Handle: func(_ context.Context, _ int, req string) string { return strings.ToUpper(req) },
		Batch: func(_ int, calls []*Call[string, string]) {
			for _, c := range calls {
				c.Resp = strings.ToUpper(c.Req)
			}
		},
		Pick:       func(req string, _ func(int) int64) int { return len(req) % shards },
		Shed:       func(err error) string { return "ERR " + err.Error() },
		Shards:     shards,
		Workers:    func() int { return int(e.workers.Load()) },
		Resize:     func(k int) error { e.workers.Store(int64(k)); return nil },
		MaxWorkers: 8,
		Drain:      func() error { e.drained.Add(1); return nil },
		Close:      func() error { e.closed.Add(1); return nil },
	}, nil)
	return e
}

// TestLifecycleConformance runs the shared lifecycle battery against the
// bare frontend, serial and batched.
func TestLifecycleConformance(t *testing.T) {
	resize := func(c lifecycle.Component, n int) error {
		return c.(*Frontend[string, string]).ResizeWorkers(n)
	}
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name:   "serve.Frontend",
			New:    func(*testing.T) lifecycle.Component { return newEcho(2).f },
			Resize: resize, Grow: 6, Shrink: 2,
		},
		{
			Name: "serve.Frontend-batched",
			New: func(*testing.T) lifecycle.Component {
				f := newEcho(2).f
				f.Queue(16, 4)
				return f
			},
			Resize: resize, Grow: 6, Shrink: 2,
		},
	})
}

// TestDrainOrder pins the teardown order: Drain flushes and closes the
// queues before the backend drains, later requests are shed with the
// typed ErrClosed, and Close after Drain closes the backend once.
func TestDrainOrder(t *testing.T) {
	e := newEcho(2)
	e.f.Queue(16, 4)
	gw, err := gateway.New(gateway.Config{Table: mustTable(t, "alice tok\n")})
	if err != nil {
		t.Fatal(err)
	}
	e.f.SetGateway(gw)
	if err := e.f.Serving(); err != nil {
		t.Fatal(err)
	}
	if got := e.f.Do(1, "hi"); got != "HI" {
		t.Fatalf("Do = %q, want HI", got)
	}
	if err := e.f.Drain(); err != nil {
		t.Fatal(err)
	}
	if !gw.Draining() || !e.f.Draining() || !e.f.Health().Draining {
		t.Fatal("drain not visible on the gateway, the frontend and the health document")
	}
	if got := e.f.Do(1, "late"); got != "ERR "+submit.ErrClosed.Error() {
		t.Fatalf("post-drain Do = %q, want the typed closed-queue error", got)
	}
	if err := e.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.f.Close(); err != nil {
		t.Fatal(err)
	}
	if d, c := e.drained.Load(), e.closed.Load(); d != 1 || c != 1 {
		t.Fatalf("backend drained %d times and closed %d times, want 1 and 1", d, c)
	}
}

func mustTable(t *testing.T, s string) *gateway.Table {
	t.Helper()
	table, err := gateway.ParseTable(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestAwait pins both resolutions of an admitted call: the drain loop's
// response verbatim, or — when the queues closed underneath it — the
// typed error through Shed instead of a zero-value response.
func TestAwait(t *testing.T) {
	f := newEcho(1).f
	c := &Call[string, string]{Resp: "filled"}
	if got := f.await(c, submit.Resolved(nil)); got != "filled" {
		t.Fatalf("clean resolution returned %q", got)
	}
	if got := f.await(c, submit.Resolved(submit.ErrClosed)); got != "ERR "+submit.ErrClosed.Error() {
		t.Fatalf("closed-queue resolution returned %q", got)
	}
}

// TestElasticNeedsBatchedResizable pins EnableElastic's preconditions.
func TestElasticNeedsBatchedResizable(t *testing.T) {
	serial := newEcho(1).f
	if err := serial.Serving(); err != nil {
		t.Fatal(err)
	}
	if err := serial.EnableElastic(1, 4); err == nil {
		t.Fatal("serial frontend accepted elastic mode")
	}
	batched := newEcho(1).f
	batched.Queue(8, 2)
	if err := batched.EnableElastic(1, 4); err == nil {
		t.Fatal("EnableElastic before Start was accepted")
	} else if _, ok := lifecycle.IsLifecycle(err); !ok {
		t.Fatalf("EnableElastic before Start: %v, want a lifecycle refusal", err)
	}
	if err := batched.Serving(); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][2]int{{0, 4}, {3, 2}, {1, 9}} {
		if err := batched.EnableElastic(b[0], b[1]); err == nil {
			t.Fatalf("bounds %v accepted", b)
		}
	}
	if err := batched.EnableElastic(2, 4); err != nil {
		t.Fatal(err)
	}
	if st := batched.ElasticStats(); st != (ElasticStats{MaxWorkers: 2, Workers: 2}) {
		t.Fatalf("stats after enable = %+v", st)
	}
	if err := batched.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeAcceptLoop drives the one accept loop over a real socket:
// connections get distinct ids, Serve returns nil once the listener
// closes and every connection has finished.
func TestServeAcceptLoop(t *testing.T) {
	e := newEcho(2)
	e.f.Queue(16, 4)
	if err := e.f.Serving(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.f.Serve(ln) }()
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, "ping\n"); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || line != "PING\n" {
			t.Fatalf("conn %d: %q, %v", i, line, err)
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := e.f.nextID.Load(); got != 3 {
		t.Fatalf("assigned %d connection ids, want 3", got)
	}
	if err := e.f.Close(); err != nil {
		t.Fatal(err)
	}
}
