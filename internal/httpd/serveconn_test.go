package httpd

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
)

// scriptConn is a connection that delivers in to its reads and counts
// its writes.
type scriptConn struct {
	in     io.Reader
	out    bytes.Buffer
	writes int
}

func (c *scriptConn) Read(p []byte) (int, error) { return c.in.Read(p) }

func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes++
	return c.out.Write(p)
}

// serveOne runs n's connection loop on one scripted connection carrying
// req.
func serveOne(n *NetServer, id int, req []byte) *scriptConn {
	conn := &scriptConn{in: bytes.NewReader(req)}
	n.serveConn(id, conn)
	return conn
}

// fmtWriteHTTPResponse is WriteHTTPResponse as it was written with
// fmt, head and body in two writes, kept verbatim: its bytes are the
// goldens the one-write renderer must reproduce.
func fmtWriteHTTPResponse(w io.Writer, resp Response) {
	status := resp.Status
	if status == 0 {
		status = 500
	}
	body := resp.Body
	if body == nil && resp.Err != nil {
		body = []byte(resp.Err.Error() + "\n")
	}
	retry := ""
	if resp.RetryAfterCycles > 0 {
		retry = fmt.Sprintf("Retry-After: %d\r\n", gateway.RetrySeconds(resp.RetryAfterCycles))
	}
	_, err := fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n",
		status, StatusText(status), len(body), retry)
	if err != nil {
		return
	}
	_, _ = w.Write(body)
}

// gatewayServer returns a server over a two-worker pool behind a
// gateway that grants each tenant a burst of one request.
func gatewayServer(t *testing.T, logger *log.Logger) *NetServer {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD, Workers: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>home</html>"))
	n := serveQueued(t, pool, logger)
	n.SetGateway(testGateway(t, gateway.Limits{Burst: 1, RefillEvery: 100, MaxInflight: 8}))
	return n
}

// TestServeConnWritesOnce: whatever the outcome, serveConn answers with
// one write, and its bytes are the fmt renderer's. A twin server fed the
// same requests supplies the Response each golden is rendered from.
func TestServeConnWritesOnce(t *testing.T) {
	live, twin := gatewayServer(t, nil), gatewayServer(t, nil)
	alice := map[string]string{"authorization": "Bearer tok-alice"}
	mal := map[string]string{"authorization": "Bearer tok-mal"}
	for i, c := range []struct {
		name  string
		req   []byte
		drain bool
		want  string
	}{
		{"200", BuildRequest("GET", "/", alice), false, "HTTP/1.1 200 OK\r\n"},
		{"429 with Retry-After", BuildRequest("GET", "/", alice), false, "HTTP/1.1 429 Too Many Requests\r\nContent-Length: "},
		{"401", BuildRequest("GET", "/", nil), false, "HTTP/1.1 401 Unauthorized\r\n"},
		{"404", BuildRequest("GET", "/missing", mal), false, "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n"},
		{"healthz", BuildRequest("GET", "/healthz", nil), false, "HTTP/1.1 200 OK\r\n"},
		{"503 while draining", BuildRequest("GET", "/", mal), true, "HTTP/1.1 503 Service Unavailable\r\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.drain {
				for _, n := range []*NetServer{live, twin} {
					if err := n.Drain(); err != nil {
						t.Fatal(err)
					}
				}
			}
			conn := serveOne(live, i+1, c.req)
			var golden bytes.Buffer
			fmtWriteHTTPResponse(&golden, twin.dispatch(i+1, c.req))
			if conn.writes != 1 {
				t.Errorf("%d writes, want 1", conn.writes)
			}
			if got := conn.out.String(); got != golden.String() {
				t.Errorf("wrote %q, golden %q", got, golden.String())
			}
			if !strings.HasPrefix(conn.out.String(), c.want) {
				t.Errorf("wrote %q, want it to start %q", conn.out.String(), c.want)
			}
			if strings.HasSuffix(c.name, "Retry-After") && !strings.Contains(conn.out.String(), "\r\nRetry-After: ") {
				t.Errorf("a throttled tenant drew no Retry-After: %q", conn.out.String())
			}
		})
	}
}

// TestWriteHTTPResponseMatchesFmt: every response form — error bodies,
// empty errors, retry hints, unknown and zero statuses, bodies larger
// than a bufio buffer — renders to the fmt renderer's bytes, through a
// plain writer and through a bufio.Writer, in one Write.
func TestWriteHTTPResponseMatchesFmt(t *testing.T) {
	for _, resp := range []Response{
		{Status: 200, Body: []byte("hi")},
		{Status: 200},
		{},
		{Status: 599, Body: []byte{}},
		{Status: -7, Err: ErrMalformed},
		{Status: 503, Err: ErrUnavailable},
		{Status: 400, Err: errors.New("")},
		{Status: 429, Err: ErrMalformed, RetryAfterCycles: 1},
		{Status: 503, RetryAfterCycles: 1 << 40, Body: []byte("x")},
		{Status: 200, Body: bytes.Repeat([]byte("0123456789"), 1000)},
	} {
		var golden bytes.Buffer
		fmtWriteHTTPResponse(&golden, resp)
		plain := &scriptConn{}
		WriteHTTPResponse(plain, resp)
		if plain.out.String() != golden.String() || plain.writes != 1 {
			t.Errorf("%+v: wrote %q in %d writes, golden %q", resp, plain.out.String(), plain.writes, golden.String())
		}
		buffered := &scriptConn{}
		bw := bufio.NewWriter(buffered)
		WriteHTTPResponse(bw, resp)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if buffered.out.String() != golden.String() || buffered.writes != 1 {
			t.Errorf("%+v through bufio: wrote %q in %d writes, golden %q", resp, buffered.out.String(), buffered.writes, golden.String())
		}
	}
}

// requestPathAllocs is TestRequestPathAllocations' pin.
const requestPathAllocs = 2

// TestRequestPathAllocations pins the host garbage of one request on
// the gateway path serveConn runs: head read into a reused buffer
// through a warm reader, bearer token, authenticate, admit,
// Pool.ServeContext, done, render into a reused response buffer. The
// parse's one string (the head, which the request's fields and headers
// read) and the admission ticket are what remains; a clean parse runs
// no typed-error checks (the shell classifies failed runs only), a
// domain entry with no options allocates nothing, and the routed body
// is the registered content. It was 6 while the head was read into a
// fresh copy, the parse built a header map and the body was copied.
func TestRequestPathAllocations(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD, InterArrival: time.Nanosecond}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>home</html>"))
	gw := testGateway(t, gateway.Limits{Burst: 8, RefillEvery: 1, MaxInflight: 8})
	req := []byte("GET / HTTP/1.1\r\nhost: bench\r\nauthorization: Bearer tok-alice\r\nx-request-id: 5eed\r\n\r\n")
	src := bytes.NewReader(req)
	r := bufio.NewReader(src)
	var head, out []byte
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		src.Reset(req)
		r.Reset(src)
		raw, err := AppendRequestHead(head[:0], r)
		if err != nil {
			t.Fatal(err)
		}
		head = raw
		token, aerr := gateway.BearerToken(raw)
		if aerr != nil {
			t.Fatal(aerr)
		}
		tenant, err := gw.Authenticate(token)
		if err != nil {
			t.Fatal(err)
		}
		ticket, err := gw.Admit(tenant)
		if err != nil {
			t.Fatal(err)
		}
		resp := pool.ServeContext(ctx, 1, raw)
		ticket.Done(resp.Contained, resp.Status == 408)
		if resp.Status != 200 {
			t.Fatalf("status %d", resp.Status)
		}
		out = appendResponse(out[:0], resp)
	})
	if allocs > requestPathAllocs {
		t.Errorf("%v allocations per request, want at most %d", allocs, requestPathAllocs)
	}
}

// TestReadRequestHeadSizesTheCopy: the head copy is sized from what is
// buffered, but bytes buffered behind the head (a body, a pipelined
// request) do not inflate it past headPrealloc.
func TestReadRequestHeadSizesTheCopy(t *testing.T) {
	head := "GET / HTTP/1.1\r\nhost: x\r\n\r\n"
	for _, c := range []struct {
		name    string
		in      string
		wantCap int
	}{
		{"head alone", head, len(head)},
		{"head and body", head + strings.Repeat("b", 3000), headPrealloc},
	} {
		got, err := ReadRequestHead(bufio.NewReader(strings.NewReader(c.in)))
		if err != nil || string(got) != head {
			t.Fatalf("%s: %q, %v", c.name, got, err)
		}
		if cap(got) != c.wantCap {
			t.Errorf("%s: head copy has capacity %d, want %d", c.name, cap(got), c.wantCap)
		}
	}
}

// TestClientDrivenLogsArePaced: connections that hang up before their
// head, and requests with rejected credentials, are each answered as
// before — nothing, and a uniform 401 — but n of them cost about
// log2(n) log lines, not n.
func TestClientDrivenLogsArePaced(t *testing.T) {
	var logs strings.Builder
	n := gatewayServer(t, log.New(&logs, "", 0))
	const rejected = 1000
	var unauthorized string
	for i := 0; i < rejected; i++ {
		hdr := map[string]string{"authorization": "Bearer tok-wrong"}
		if i%2 == 1 {
			hdr = nil
		}
		conn := serveOne(n, i+1, BuildRequest("GET", "/", hdr))
		if i == 0 {
			unauthorized = conn.out.String()
		}
		if conn.out.String() != unauthorized || conn.writes != 1 {
			t.Fatalf("rejection %d: %q in %d writes, want %q in 1", i, conn.out.String(), conn.writes, unauthorized)
		}
	}
	if !strings.HasPrefix(unauthorized, "HTTP/1.1 401 Unauthorized\r\n") {
		t.Fatalf("rejection: %q", unauthorized)
	}
	if lines := strings.Count(logs.String(), "\n"); lines == 0 || lines > 11 {
		t.Errorf("%d log lines for %d rejected credentials, want 1..11:\n%s", lines, rejected, logs.String())
	}
	if want := "conn 512: auth rejected: gateway: unauthorized: missing authorization header, 512 on this server so far\n"; !strings.Contains(logs.String(), want) {
		t.Errorf("log lines do not name the connection, the reason and the total:\n%s", logs.String())
	}

	logs.Reset()
	for i := 0; i < rejected; i++ {
		if conn := serveOne(n, i+1, nil); conn.writes != 0 {
			t.Fatalf("a connection that sent nothing drew %q", conn.out.String())
		}
	}
	if lines := strings.Count(logs.String(), "\n"); lines == 0 || lines > 11 {
		t.Errorf("%d log lines for %d empty connections, want 1..11:\n%s", lines, rejected, logs.String())
	}
	if want := "conn 1: read: EOF, 1 on this server so far\n"; !strings.HasPrefix(logs.String(), want) {
		t.Errorf("first empty connection logged %q, want %q", logs.String(), want)
	}
}
