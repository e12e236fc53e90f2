package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/httpd"
)

// logSink keeps what run logs and hands over the address of its
// "listening on <addr>" line (what benchmark/proc.go waits for, too).
type logSink struct {
	addr chan string
	mu   sync.Mutex
	buf  strings.Builder
}

var listeningOn = regexp.MustCompile(`listening on (\S+)`)

func (s *logSink) Write(p []byte) (int, error) {
	if m := listeningOn.FindSubmatch(p); m != nil {
		s.addr <- string(m[1])
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// reply is one HTTP response as a client reads it.
type reply struct {
	status int
	body   string
}

// get sends one request on a fresh connection and reads its response:
// the head, exactly Content-Length bytes of body, and then EOF — the
// server answers one request per connection and closes it.
func get(t *testing.T, addr, path string, headers map[string]string) reply {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // read to EOF already; closing twice is harmless
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(httpd.BuildRequest("GET", path, headers)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	status, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("GET %s: status line: %v", path, err)
	}
	var rep reply
	if _, err := fmt.Sscanf(status, "HTTP/1.1 %d", &rep.status); err != nil {
		t.Fatalf("GET %s: status line %q: %v", path, status, err)
	}
	length := -1
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("GET %s: head: %v", path, err)
		}
		if line == "\r\n" {
			break
		}
		if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
			if length, err = strconv.Atoi(strings.TrimSpace(v)); err != nil {
				t.Fatalf("GET %s: %q: %v", path, line, err)
			}
		}
	}
	if length < 0 {
		t.Fatalf("GET %s: no Content-Length", path)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		t.Fatalf("GET %s: body: %v", path, err)
	}
	if n, err := r.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("GET %s: after the body read %d bytes, %v; want EOF", path, n, err)
	}
	rep.body = string(body)
	return rep
}

// TestServesAuthenticatedRequestsAndDrains starts the server exactly as
// main does — run, on a free port, the flag defaults at two workers,
// with a tenants file — and drives it over real sockets: a token is
// served and the connection ends right after the body, no token is
// refused, an exploit is contained without taking the next request
// down, /healthz answers without credentials, and SIGTERM drains.
func TestServesAuthenticatedRequestsAndDrains(t *testing.T) {
	tenants := filepath.Join(t.TempDir(), "tenants")
	if err := os.WriteFile(tenants, []byte("alice tok-alice\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	gcfg := &gateway.Config{
		Limits:          gateway.Limits{Burst: 8, RefillEvery: 2, MaxInflight: 64},
		QuarantineAfter: 3,
	}
	sink := &logSink{addr: make(chan string, 1)}
	log.SetOutput(sink)
	defer log.SetOutput(os.Stderr)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", "sdrad", 2, 0, 1024, 32, tenants, gcfg)
	}()
	var addr string
	select {
	case addr = <-sink.addr:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}

	alice := map[string]string{"authorization": "Bearer tok-alice"}
	if rep := get(t, addr, "/", alice); rep.status != 200 || !strings.Contains(rep.body, "<h1>sdrad-httpd</h1>") {
		t.Errorf("GET / with a token: %+v", rep)
	}
	if rep := get(t, addr, "/", nil); rep.status != 401 || rep.body != "unauthorized\n" {
		t.Errorf("GET / without a token: %+v", rep)
	}
	exploit := map[string]string{"authorization": "Bearer tok-alice", httpd.AttackHeader: "1"}
	if rep := get(t, addr, "/", exploit); rep.status != 400 || !strings.Contains(rep.body, "violation") {
		t.Errorf("exploit request: %+v", rep)
	}
	if rep := get(t, addr, "/health", alice); rep.status != 200 || rep.body != "ok\n" {
		t.Errorf("request after the exploit: %+v", rep)
	}
	if rep := get(t, addr, "/healthz", nil); rep.status != 200 || !strings.Contains(rep.body, `"state": "ok"`) {
		t.Errorf("GET /healthz: %+v", rep)
	}

	// Serve waits for open connections; every request above read its
	// connection to EOF. SIGTERM to ourselves is then the operator's
	// shutdown: ServeUntilSignal registered for it before the first
	// reply above could be written.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
	if logs := sink.String(); !strings.Contains(logs, "draining") ||
		!strings.Contains(logs, "contained memory-safety violation (domain rewound), 1 on this server so far") {
		t.Errorf("log does not show the containment and the drain:\n%s", logs)
	}
}

// TestIdleConnectionDoesNotHoldDrain: a client that connects and never
// sends its head does not keep SIGTERM from returning run. The drain
// expires the connection's read; the server hangs up without a reply.
// The idle client connects after a served request, so the connection
// goroutine that request leaves parked is the one that waits on it.
func TestIdleConnectionDoesNotHoldDrain(t *testing.T) {
	sink := &logSink{addr: make(chan string, 1)}
	log.SetOutput(sink)
	defer log.SetOutput(os.Stderr)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", "sdrad", 2, 0, 1024, 32, "", nil)
	}()
	var addr string
	select {
	case addr = <-sink.addr:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}
	if rep := get(t, addr, "/health", nil); rep.status != 200 {
		t.Fatalf("GET /health: %+v", rep)
	}
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idle.Close() }() // the server hangs up first; closing twice is harmless
	if err := idle.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Connections are accepted in order, so once a later one is answered
	// the idle one is being served: its head read is what SIGTERM meets.
	if rep := get(t, addr, "/health", nil); rep.status != 200 {
		t.Fatalf("GET /health: %+v", rep)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after SIGTERM with an idle client connected")
	}
	if n, err := idle.Read(make([]byte, 1)); n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection read %d bytes, %v; want EOF", n, err)
	}
}
