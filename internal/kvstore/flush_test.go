package kvstore

import (
	"context"
	"errors"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/kvstore/kvstoretest"
	"repro/internal/serve"
	"repro/internal/workload"
)

// kvdServer returns sdrad-kvd's server (batched frontend, the binary's
// queue settings) over a fresh two-shard pool.
func kvdServer(t *testing.T, logger *log.Logger) *NetServer {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: ModeSDRaD, InterArrival: time.Nanosecond}, 2, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return serveQueued(t, pool, logger)
}

// serveQueued wraps pool as sdrad-kvd does at its default flags. The
// server, and with it the pool, closes when the test ends.
func serveQueued(t *testing.T, pool *Pool, logger *log.Logger) *NetServer {
	t.Helper()
	n, err := NewBatchedNetServerPool(pool, logger, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := n.Close(); cerr != nil {
			t.Errorf("close: %v", cerr)
		}
	})
	return n
}

// kvdLoop is the battery's factory for sdrad-kvd's loop.
func kvdLoop(t *testing.T) kvstoretest.Loop {
	n := kvdServer(t, nil)
	return kvstoretest.Loop{Serve: func(conn io.ReadWriter) { n.serveConn(1, conn) }, Queues: n.Queues()}
}

// TestFlushRule runs the flush-rule battery against sdrad-kvd's loop.
func TestFlushRule(t *testing.T) { kvstoretest.FlushRule(t, kvdLoop) }

// failingSession pipelines every data command through a serial frontend
// and fails rendering the reply to key "c".
type failingSession struct{ err error }

func (s failingSession) Pipeline(req workload.Request) (workload.Request, bool) { return req, true }

func (s failingSession) Serve(io.Writer, Command) error { return nil }

func (s failingSession) Reply(w io.Writer, req workload.Request, _ Response) error {
	if req.Key == "c" {
		return s.err
	}
	_, err := io.WriteString(w, "END "+req.Key+"\r\n")
	return err
}

// TestFlushRuleHandlerError covers the one way out of the loop the
// battery cannot script: a handler error mid-window still lets every
// earlier reply reach the connection, and is logged.
func TestFlushRuleHandlerError(t *testing.T) {
	conn := kvstoretest.NewConn("get a\r\nget b\r\nget c\r\nget d\r\n")
	var logs strings.Builder
	f := serve.New(serve.Backend[workload.Request, Response]{
		Name:   "test",
		Handle: func(context.Context, int, workload.Request) Response { return Response{} },
	}, log.New(&logs, "", 0))
	ServeCommands(7, conn, f, failingSession{errors.New("boom")})
	if got, want := conn.Out.String(), "END a\r\nEND b\r\n"; got != want || conn.Writes != 1 {
		t.Errorf("replies %q in %d writes, want %q in 1", got, conn.Writes, want)
	}
	if got, want := logs.String(), "conn 7 write: boom\n"; got != want {
		t.Errorf("logged %q, want %q", got, want)
	}
}

// TestContainedViolationsLogSparsely pins the log-amplification fix: an
// attacker's exploit requests are all counted, but n of them cost about
// log2(n) log lines, not n.
func TestContainedViolationsLogSparsely(t *testing.T) {
	var logs strings.Builder
	n := kvdServer(t, log.New(&logs, "", 0))
	const exploits = 1000
	exploit := "set victim 0 0 9\r\n" + AttackMarker + "\r\n"
	conn := kvstoretest.NewConn(strings.Repeat(exploit, exploits) + "stats\r\n")
	n.serveConn(3, conn)
	out := conn.Out.String()
	if got := strings.Count(out, "SERVER_ERROR"); got != exploits {
		t.Errorf("%d exploit SETs answered SERVER_ERROR, want %d", got, exploits)
	}
	if !strings.Contains(out, "STAT contained_violations 1000\r\n") {
		t.Errorf("stats lost count of the violations:\n%s", out[strings.Index(out, "STAT"):])
	}
	lines := strings.Count(logs.String(), "\n")
	if lines == 0 || lines > 11 {
		t.Errorf("%d log lines for %d contained violations, want 1..11:\n%s", lines, exploits, logs.String())
	}
	if !strings.Contains(logs.String(), "conn 3: contained memory-safety violation (domain rewound), 512 on this server so far") {
		t.Errorf("log lines do not name the connection and the running total:\n%s", logs.String())
	}
}

// TestAuthRejectionsLogSparsely: a client that sends rejected tokens
// gets every rejection answered, but n of them cost about log2(n) log
// lines, not n.
func TestAuthRejectionsLogSparsely(t *testing.T) {
	var logs strings.Builder
	n := kvdServer(t, log.New(&logs, "", 0))
	n.SetGateway(testGateway(t, gateway.Limits{Burst: 8, RefillEvery: 1, MaxInflight: 8}))
	const rejected = 1000
	conn := kvstoretest.NewConn(strings.Repeat("auth tok-wrong\r\n", rejected) + "auth tok-alice\r\n")
	n.serveConn(5, conn)
	out := conn.Out.String()
	if got := strings.Count(out, "CLIENT_ERROR unauthorized\r\n"); got != rejected || !strings.HasSuffix(out, "OK\r\n") {
		t.Errorf("%d rejections answered (want %d), then %q", got, rejected, out[len(out)-min(len(out), 8):])
	}
	if lines := strings.Count(logs.String(), "\n"); lines == 0 || lines > 11 {
		t.Errorf("%d log lines for %d rejected tokens, want 1..11:\n%s", lines, rejected, logs.String())
	}
	if want := "conn 5: auth rejected: gateway: unauthorized: unknown token, 512 on this server so far\n"; !strings.Contains(logs.String(), want) {
		t.Errorf("log lines do not name the connection, the reason and the running total:\n%s", logs.String())
	}
}
