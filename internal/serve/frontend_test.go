package serve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	lifecycletest.Run(t, []lifecycletest.Case{
		{
			Name: "serve.Frontend",
			New:  func(*testing.T) lifecycle.Component { return newEcho(2).f },
		},
		{
			Name: "serve.Frontend-batched",
			New: func(*testing.T) lifecycle.Component {
				f := newEcho(2).f
				f.Queue(16, 4)
				return f
			},
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

// TestAwait pins every way Wait settles a request: an admitted call's
// response verbatim, or — when the queues closed underneath it — the
// typed error through Shed instead of a zero-value response; a refusal
// through Shed; a serial call's response as Submit left it. A second
// Wait returns the same outcome.
func TestAwait(t *testing.T) {
	f := newEcho(1).f
	for _, tc := range []struct {
		name string
		p    Pending[string, string]
		want string
	}{
		{"clean resolution", Pending[string, string]{call: settledCall(t, "filled", nil)}, "filled"},
		{"closed-queue resolution", Pending[string, string]{call: settledCall(t, "filled", submit.ErrClosed)}, "ERR " + submit.ErrClosed.Error()},
		{"refusal", Pending[string, string]{err: submit.ErrClosed}, "ERR " + submit.ErrClosed.Error()},
		{"serial", Pending[string, string]{resp: "done"}, "done"},
	} {
		for i := 1; i <= 2; i++ {
			if got := f.Wait(&tc.p); got != tc.want {
				t.Errorf("%s: Wait %d = %q, want %q", tc.name, i, got, tc.want)
			}
		}
	}
}

// settledCall returns a call holding resp whose task a queue resolved
// with err.
func settledCall(t *testing.T, resp string, err error) *Call[string, string] {
	t.Helper()
	q, qerr := submit.New(submit.Config{Workers: 1, Exec: func(_ int, batch []*submit.Task) {
		for _, task := range batch {
			task.Resolve(err)
		}
	}})
	if qerr != nil {
		t.Fatal(qerr)
	}
	defer q.Close()
	c := &Call[string, string]{Resp: resp}
	if serr := q.SubmitTask(0, &c.task); serr != nil {
		t.Fatal(serr)
	}
	if got := c.task.Future().Err(); got != err {
		t.Fatalf("task resolved with %v, want %v", got, err)
	}
	return c
}

// TestSubmitQueuesWithoutWaiting: a batched frontend's Submit returns
// before the call has executed, Wait returns its response, and the
// request's deadline is released by Wait, not before.
func TestSubmitQueuesWithoutWaiting(t *testing.T) {
	release := make(chan struct{})
	e := newEcho(1)
	batch := e.f.b.Batch
	e.f.b.Batch = func(shard int, calls []*Call[string, string]) {
		<-release
		batch(shard, calls)
	}
	e.f.Queue(16, 4)
	e.f.SetRequestTimeout(time.Hour)
	if err := e.f.Serving(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.f.Close(); err != nil {
			t.Error(err)
		}
	}()
	p := e.f.Submit(1, "a")
	q := e.f.Submit(1, "b")
	if p.Overloaded() || q.Overloaded() {
		t.Fatal("a queue with room refused a request")
	}
	select {
	case <-p.call.task.Future().Done():
		t.Fatal("Submit waited for the call to execute")
	default:
	}
	if p.Settled() {
		t.Fatal("a queued call reports itself settled")
	}
	// Wait recycles the call, so take the contexts it checks first.
	pctx, qctx := p.call.Ctx, q.call.Ctx
	close(release)
	if got := e.f.Wait(&p); got != "A" {
		t.Fatalf("Wait = %q, want A", got)
	}
	if pctx.Err() == nil {
		t.Error("the request's deadline outlived Wait")
	}
	if qctx.Err() != nil {
		t.Error("Wait on one request released another's deadline")
	}
	if got := e.f.Wait(&q); got != "B" {
		t.Fatalf("Wait = %q, want B", got)
	}
}

// TestSubmitOverload: a full queue refuses at once, the refusal is
// flagged as an overload and sheds with the deterministic retry hint,
// and a submit after the queue drained is admitted.
func TestSubmitOverload(t *testing.T) {
	release := make(chan struct{})
	e := newEcho(1)
	batch := e.f.b.Batch
	e.f.b.Batch = func(shard int, calls []*Call[string, string]) {
		<-release
		batch(shard, calls)
	}
	e.f.Queue(1, 1)
	if err := e.f.Serving(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.f.Close(); err != nil {
			t.Error(err)
		}
	}()
	// The drain loop takes the first call and blocks in Batch; the second
	// fills the one slot; the third is refused.
	first := e.f.Submit(1, "a")
	for e.f.Queues().Stats(0).Batches == 0 {
		runtime.Gosched()
	}
	second := e.f.Submit(1, "b")
	third := e.f.Submit(1, "c")
	if first.Overloaded() || second.Overloaded() || !third.Overloaded() {
		t.Fatalf("overloaded = %v %v %v, want false false true", first.Overloaded(), second.Overloaded(), third.Overloaded())
	}
	if got := e.f.Wait(&third); !strings.HasPrefix(got, "ERR ") || !strings.Contains(got, "retry") {
		t.Fatalf("refused request answered %q, want a shed with a retry hint", got)
	}
	close(release)
	for _, w := range []struct {
		p    *Pending[string, string]
		want string
	}{{&first, "A"}, {&second, "B"}} {
		if got := e.f.Wait(w.p); got != w.want {
			t.Fatalf("Wait = %q, want %q", got, w.want)
		}
	}
	again := e.f.Submit(1, "c")
	if again.Overloaded() {
		t.Fatal("a drained queue refused the resubmission")
	}
	if got := e.f.Wait(&again); got != "C" {
		t.Fatalf("resubmitted request answered %q", got)
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
	if w := batched.b.Workers(); w != 2 || batched.scaler.Load() == nil {
		t.Fatalf("after enable: %d workers, scaler set %v; want 2 and true", w, batched.scaler.Load() != nil)
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
