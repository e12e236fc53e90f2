package kvstore

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
)

// startNet spins up a real TCP listener backed by a fresh one-shard
// server and returns its address plus a shutdown func.
func startNet(t *testing.T, mode Mode) (string, func()) {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{Mode: mode}, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ns := serveQueued(t, pool, nil)
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), func() {
		if err := ln.Close(); err != nil {
			t.Errorf("close listener: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// talkErr sends a protocol script and returns everything the server
// wrote back until the connection closed. Safe to call from any
// goroutine.
func talkErr(addr, script string) (string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write([]byte(script)); err != nil {
		return "", err
	}
	var out strings.Builder
	r := bufio.NewReader(conn)
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return out.String(), nil
}

// talk is talkErr with test-fatal error handling (test goroutine only).
func talk(t *testing.T, addr, script string) string {
	t.Helper()
	out, err := talkErr(addr, script)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNetServerEndToEnd(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()

	out := talk(t, addr, "set k 0 0 5\r\nhello\r\nget k\r\ndelete k\r\nget k\r\nquit\r\n")
	want := "STORED\r\nVALUE k 0 5\r\nhello\r\nEND\r\nDELETED\r\nEND\r\n"
	if out != want {
		t.Errorf("transcript = %q, want %q", out, want)
	}
}

func TestNetServerContainsWireAttack(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()

	// Store a victim value first.
	if out := talk(t, addr, "set victim 0 0 4\r\nsafe\r\nquit\r\n"); out != "STORED\r\n" {
		t.Fatalf("setup: %q", out)
	}
	// Fire the exploit payload.
	evil := fmt.Sprintf("set x 0 0 %d\r\n%s\r\nquit\r\n", len(AttackMarker), AttackMarker)
	out := talk(t, addr, evil)
	if !strings.HasPrefix(out, "SERVER_ERROR") {
		t.Errorf("attack response = %q, want SERVER_ERROR", out)
	}
	// Service and victim data intact; stats show the containment.
	out = talk(t, addr, "get victim\r\nstats\r\nquit\r\n")
	if !strings.Contains(out, "VALUE victim 0 4\r\nsafe") {
		t.Errorf("victim lost: %q", out)
	}
	if !strings.Contains(out, "STAT contained_violations 1") {
		t.Errorf("stats missing containment: %q", out)
	}
	if !strings.Contains(out, "STAT crashes 0") {
		t.Errorf("unexpected crash: %q", out)
	}
}

func TestNetServerMalformedCommand(t *testing.T) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()
	out := talk(t, addr, "frobnicate\r\n")
	if !strings.HasPrefix(out, "CLIENT_ERROR") {
		t.Errorf("malformed = %q", out)
	}
}

// TestNetServerConcurrentClients runs benign clients alone and beside
// an attacker: every benign transcript stays exact, every exploit gets
// SERVER_ERROR, and stats count each one contained with no crash.
func TestNetServerConcurrentClients(t *testing.T) {
	for _, tc := range []struct {
		name    string
		attacks int
	}{
		{"benign only", 0},
		{"beside an attacker", 8},
	} {
		t.Run(tc.name, func(t *testing.T) { concurrentClients(t, tc.attacks) })
	}
}

func concurrentClients(t *testing.T, attacks int) {
	addr, stop := startNet(t, ModeSDRaD)
	defer stop()

	const clients = 8
	errs := make(chan error, clients+1)
	for c := 0; c < clients; c++ {
		go func(c int) {
			key := fmt.Sprintf("k%d", c)
			val := fmt.Sprintf("value-%d", c)
			script := fmt.Sprintf("set %s 0 0 %d\r\n%s\r\nget %s\r\nquit\r\n", key, len(val), val, key)
			out, err := talkErr(addr, script)
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
				return
			}
			want := fmt.Sprintf("STORED\r\nVALUE %s 0 %d\r\n%s\r\nEND\r\n", key, len(val), val)
			if out != want {
				errs <- fmt.Errorf("client %d: %q != %q", c, out, want)
				return
			}
			errs <- nil
		}(c)
	}
	go func() {
		evil := fmt.Sprintf("set x 0 0 %d\r\n%s\r\nquit\r\n", len(AttackMarker), AttackMarker)
		for i := 0; i < attacks; i++ {
			out, err := talkErr(addr, evil)
			if err != nil {
				errs <- fmt.Errorf("attack %d: %w", i, err)
				return
			}
			if !strings.HasPrefix(out, "SERVER_ERROR") || strings.Count(out, "\r\n") != 1 {
				errs <- fmt.Errorf("attack %d: %q, want one SERVER_ERROR line", i, out)
				return
			}
		}
		errs <- nil
	}()
	for c := 0; c < clients+1; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	out := talk(t, addr, "stats\r\nquit\r\n")
	for _, want := range []string{fmt.Sprintf("STAT contained_violations %d\r\n", attacks), "STAT crashes 0\r\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats missing %q:\n%s", want, out)
		}
	}
}
