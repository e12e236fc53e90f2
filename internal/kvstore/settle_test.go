package kvstore

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/kvstore/kvstoretest"
	"repro/internal/metrics"
	"repro/internal/submit"
	"repro/internal/vclock"
)

// TestSettleRule runs the settle-rule battery against sdrad-kvd's loop:
// a window reaches each shard queue as one batch, a key's requests keep
// their order, and stats waits for everything before it.
func TestSettleRule(t *testing.T) { kvstoretest.SettleRule(t, kvdLoop) }

// settleWindow is 32 commands over eight keys and the replies they draw
// from an empty store: a set, a get, a delete and a get per key.
func settleWindow() (in, replies string) {
	var i, r strings.Builder
	for k := 0; k < 8; k++ {
		key, v := fmt.Sprintf("key-%d", k), fmt.Sprintf("value-%d", k)
		fmt.Fprintf(&i, "set %s 0 0 %d\r\n%s\r\nget %s\r\ndelete %s\r\nget %s\r\n", key, len(v), v, key, key, key)
		fmt.Fprintf(&r, "STORED\r\nVALUE %s 0 %d\r\n%s\r\nEND\r\nDELETED\r\nEND\r\n", key, len(v), v)
	}
	return i.String(), r.String()
}

// executorCalls sums the batches every shard queue has run, and how
// many of them ran inline, on the goroutine that submitted them.
func executorCalls(q *submit.Queues) (batches, inline uint64) {
	for w := 0; w < q.Workers(); w++ {
		st := q.Stats(w)
		batches += st.Batches
		inline += st.Inline
	}
	return batches, inline
}

// windowConn is a scripted connection that counts the executor calls
// made before the loop first reads past its first window.
type windowConn struct {
	*kvstoretest.Conn
	q        *submit.Queues
	first    int
	read     int
	atSecond uint64
	inlineAt uint64
}

func (c *windowConn) Read(p []byte) (int, error) {
	if c.read == c.first {
		c.atSecond, c.inlineAt = executorCalls(c.q)
	}
	n, err := c.Conn.Read(p)
	c.read += n
	return n, err
}

// slowKVDServer is kvdServer on a 1 MHz simulated core with a request
// deadline of one quantum: a 64 KiB SET's parse exceeds the budget, a
// small command's does not.
func slowKVDServer(t *testing.T) *NetServer {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Cost.CPUHz = 1_000_000
	pool, err := NewPool(cfg, ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	n := serveQueued(t, pool, nil)
	n.SetRequestTimeout(vclock.DeadlineQuantum)
	return n
}

// TestSettleDemotesAfterDetection: once a reply on a connection reports
// a detection — a contained violation or a budget preemption — every
// later command on it is a barrier, so the next window runs one request
// per batch, each on the connection's goroutine (its shard queue is
// idle); after a clean window the next is still batched, by the drain
// loops.
func TestSettleDemotesAfterDetection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P: a clean window is one batch per shard (see kvstoretest.SettleRule)
	exploit := AttackMarker + "-payload"
	big := bytes.Repeat([]byte("v"), 64<<10)
	for _, c := range []struct {
		name   string
		server func(t *testing.T) *NetServer
		first  string
		reply  string // prefix of the first window's first reply
		demote bool
	}{
		{"clean", func(t *testing.T) *NetServer { return kvdServer(t, nil) }, "set victim 0 0 3\r\nold\r\n", "STORED\r\n", false},
		{"contained", func(t *testing.T) *NetServer { return kvdServer(t, nil) },
			fmt.Sprintf("set victim 0 0 %d\r\n%s\r\n", len(exploit), exploit), "SERVER_ERROR ", true},
		{"preempted", slowKVDServer, fmt.Sprintf("set victim 0 0 %d\r\n%s\r\n", len(big), big), "SERVER_ERROR ", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.server(t)
			first := c.first + "get nothing\r\n"
			second, replies := settleWindow()
			conn := &windowConn{Conn: kvstoretest.NewConn(first, second), q: n.Queues(), first: len(first)}
			n.serveConn(1, conn)
			out := conn.Out.String()
			if !strings.HasPrefix(out, c.reply) || !strings.HasSuffix(out, "END\r\n"+replies) {
				t.Fatalf("replies:\n%q\nwant %q first and the window's replies after the get", out, c.reply)
			}
			if c.name == "preempted" && !strings.Contains(out, "budget") {
				t.Errorf("the big SET was not preempted: %q", out[:strings.Index(out, "\r\n")])
			}
			calls, inline := executorCalls(n.Queues())
			calls, inline = calls-conn.atSecond, inline-conn.inlineAt
			switch {
			case c.demote && (calls != 32 || inline != 32):
				t.Errorf("the window after a detection ran in %d batches, %d on the connection's goroutine; want 32 (one per request), all 32 there", calls, inline)
			case !c.demote && (calls > 4 || inline != 0):
				t.Errorf("the window after a clean one ran in %d batches, %d on the connection's goroutine; want at most 4, none there", calls, inline)
			}
		})
	}
}

// TestSettleGatewayOneInFlight: with a gateway every data command is a
// barrier — admission reads the tenant's inflight count — so a tenant
// whose quota is one request in flight still has a whole pipelined
// window admitted and answered, with the same tenant counters as one
// command at a time.
func TestSettleGatewayOneInFlight(t *testing.T) {
	n := kvdServer(t, nil)
	gw := testGateway(t, gateway.Limits{Burst: 8, RefillEvery: 1, MaxInflight: 1})
	n.SetGateway(gw)
	in, replies := settleWindow()
	conn := kvstoretest.NewConn("auth tok-alice\r\n" + in)
	n.serveConn(1, conn)
	if got, want := conn.Out.String(), "OK\r\n"+replies; got != want {
		t.Fatalf("replies:\n%q\nwant:\n%q", got, want)
	}
	want := []metrics.TenantSnapshot{{Tenant: "alice", TenantCounters: metrics.TenantCounters{Admitted: 32, Completed: 32}}}
	if got := gw.Stats().Snapshot(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tenant counters %+v, want %+v", got, want)
	}
	if calls, _ := executorCalls(n.Queues()); calls != 32 {
		t.Errorf("%d executor calls for 32 barrier commands, want 32", calls)
	}
}

// TestSettleOverloadRetriesOnce: at queue depth one a window overflows
// its shard queues, and the loop settles what it has pending and
// submits again instead of shedding — the connection is never refused
// for its own backlog.
func TestSettleOverloadRetriesOnce(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewBatchedNetServerPool(pool, nil, 2, 32)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := n.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	}()
	if d := n.Queues().Depth(); d != 1 {
		t.Fatalf("queue depth %d, want 1", d)
	}
	in, replies := settleWindow()
	conn := kvstoretest.NewConn(in)
	n.serveConn(1, conn)
	if got := conn.Out.String(); got != replies {
		t.Fatalf("replies:\n%q\nwant:\n%q", got, replies)
	}
}

// TestSettleWindowAllocations pins the garbage of a pipelined window
// through sdrad-kvd's loop — connection, parse, submit, batch, settle
// and render — at 84 allocations per 32-command window on a fresh
// connection (2.6 per command; TestPipelinedCommandAllocations takes
// the connection's own share out). Serving the window one request in
// flight at a time, with fmt-rendered payloads, cost 459; before the
// window rendered into one reused arena and the batch's calls shared
// one slab, it cost 332; 236 while every queued request built its own
// parse closure; and 204 while every queued request allocated its call,
// task and future channel and every batch its engine slices.
func TestSettleWindowAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	n := kvdServer(t, nil)
	in, replies := settleWindow()
	serve := func() {
		conn := kvstoretest.NewConn(in)
		n.serveConn(1, conn)
		if conn.Out.String() != replies {
			t.Fatalf("replies:\n%q\nwant:\n%q", conn.Out.String(), replies)
		}
	}
	serve() // warm the shard scratch and the store's chunks
	if allocs := testing.AllocsPerRun(50, serve); allocs > 84 {
		t.Errorf("%v allocations per 32-command window, want at most 84", allocs)
	}
}

// TestPipelinedCommandAllocations pins what a pipelined command costs on
// a connection already open: the allocations of one more 32-command
// window on the same connection. 64 of them are the requests' own — 32
// command lines, 8 SET values, the 8 cache items and 8 LRU elements
// those SETs fill, and 8 GET hits' copies of the value, 2.0 per command
// — and one more is allowed for a pooled call the garbage collector
// dropped. The frontend's queueing, the batch engine and the batch hook
// reuse their calls, tasks and slices and add nothing; the connection's
// buffers and loop state are paid once and cancel out.
func TestPipelinedCommandAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	n := kvdServer(t, nil)
	in, replies := settleWindow()
	conn := &repeatConn{window: in}
	allocs := func(windows int) float64 {
		serve := func() {
			conn.reset(windows, len(replies))
			n.serveConn(1, conn)
			if want := strings.Repeat(replies, windows); string(conn.out) != want {
				t.Fatalf("replies:\n%q\nwant:\n%q", conn.out, want)
			}
		}
		serve() // warm the shard scratch, the call pool and the store's chunks
		return testing.AllocsPerRun(50, serve)
	}
	one, five := allocs(1), allocs(5)
	if perWindow := (five - one) / 4; perWindow > 65 {
		t.Errorf("%v allocations per further 32-command window (%v per 1-window connection, %v per 5-window one), want at most 65", perWindow, one, five)
	}
}

// repeatConn is a connection that delivers the same window a set number
// of times, one window per Read, and keeps what is written in a buffer
// sized beforehand, so that it allocates nothing itself.
type repeatConn struct {
	window string
	left   int
	out    []byte
}

func (c *repeatConn) reset(windows, replyLen int) {
	c.left = windows
	if cap(c.out) < windows*replyLen {
		c.out = make([]byte, 0, windows*replyLen)
	}
	c.out = c.out[:0]
}

func (c *repeatConn) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.EOF
	}
	c.left--
	return copy(p, c.window), nil
}

func (c *repeatConn) Write(p []byte) (int, error) {
	c.out = append(c.out, p...)
	return len(p), nil
}
