package httpd

import (
	"bufio"
	"errors"
	"log"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
)

// serveQueued wraps pool as sdrad-httpd does at its default flags. The
// server closes when the test ends.
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

func startNet(t *testing.T, mode Mode) (string, func()) {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: mode, Workers: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>home</html>"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := serveQueued(t, pool, nil)
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

func httpGet(t *testing.T, addr string, headers map[string]string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil {
			t.Logf("close: %v", cerr)
		}
	}()
	if _, err := conn.Write(BuildRequest("GET", "/", headers)); err != nil {
		t.Fatal(err)
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
	return out.String()
}

func TestHTTPNetServerServes(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()
	out := httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") {
		t.Errorf("response: %q", out)
	}
	if !strings.Contains(out, "<html>home</html>") {
		t.Errorf("body missing: %q", out)
	}
}

func TestHTTPNetServerContainsExploit(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()
	out := httpGet(t, addr, map[string]string{AttackHeader: "1"})
	if !strings.HasPrefix(out, "HTTP/1.1 400") {
		t.Errorf("attack response: %q", out)
	}
	// Server still up.
	out = httpGet(t, addr, nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200") {
		t.Errorf("post-attack response: %q", out)
	}
}

func TestReadRequestHead(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nhost: x\r\n\r\ntrailing-not-read"
	head, err := ReadRequestHead(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(head) != "GET / HTTP/1.1\r\nhost: x\r\n\r\n" {
		t.Errorf("head = %q", head)
	}
	// EOF without terminator still returns what arrived.
	head, err = ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n")))
	if err != nil || len(head) == 0 {
		t.Errorf("partial head: %q, %v", head, err)
	}
	// Empty stream errors.
	if _, err := ReadRequestHead(bufio.NewReader(strings.NewReader(""))); err == nil {
		t.Error("empty stream accepted")
	}
	// Oversized head rejected.
	big := strings.Repeat("h: v\r\n", 20_000)
	if _, err := ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\n" + big))); err == nil {
		t.Error("oversized head accepted")
	}
}

func TestWriteHTTPResponseForms(t *testing.T) {
	var b strings.Builder
	WriteHTTPResponse(&b, Response{Status: 200, Body: []byte("hi")})
	if !strings.HasPrefix(b.String(), "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n") {
		t.Errorf("200: %q", b.String())
	}
	b.Reset()
	WriteHTTPResponse(&b, Response{}) // zero status defaults to 500
	if !strings.HasPrefix(b.String(), "HTTP/1.1 500") {
		t.Errorf("default: %q", b.String())
	}
	b.Reset()
	WriteHTTPResponse(&b, Response{Status: 503, Err: ErrUnavailable})
	if !strings.Contains(b.String(), "503 Service Unavailable") || !strings.Contains(b.String(), "restarting") {
		t.Errorf("503: %q", b.String())
	}
}

func TestStatusText(t *testing.T) {
	cases := map[int]string{200: "OK", 400: "Bad Request", 404: "Not Found",
		405: "Method Not Allowed", 503: "Service Unavailable", 599: "Internal Server Error"}
	for code, want := range cases {
		if got := StatusText(code); got != want {
			t.Errorf("StatusText(%d) = %q", code, got)
		}
	}
}

// endlessA is a client that never sends a newline; n counts the bytes
// the parser pulled from it.
type endlessA struct{ n int }

func (e *endlessA) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	e.n += len(p)
	return len(p), nil
}

// TestReadRequestHeadBoundsPartialLine: the head cap applies to a line
// still being read, so a newline-less stream is rejected with
// ErrHeadTooLarge within the cap plus one bufio buffer — the trusted
// side never buffers an unbounded line.
func TestReadRequestHeadBoundsPartialLine(t *testing.T) {
	for _, size := range []int{16, 4096, 256 << 10} {
		src := &endlessA{}
		_, err := ReadRequestHead(bufio.NewReaderSize(src, size))
		if !errors.Is(err, ErrHeadTooLarge) {
			t.Fatalf("buffer %d: err = %v, want ErrHeadTooLarge", size, err)
		}
		if src.n > maxRequestHead+size {
			t.Errorf("buffer %d: parser read %d bytes, want at most %d", size, src.n, maxRequestHead+size)
		}
	}
	// A header line that spans several small buffers is one line: its
	// final fragment "\n" must not be taken for the blank line.
	head := "GET / HTTP/1.1\r\nx: " + strings.Repeat("v", 27) + "\n\r\n"
	got, err := ReadRequestHead(bufio.NewReaderSize(strings.NewReader(head+"body"), 16))
	if err != nil || string(got) != head {
		t.Fatalf("multi-buffer head = %q, %v", got, err)
	}
}
