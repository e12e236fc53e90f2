package httpd

import (
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gateway"
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

// startGatewayNet spins up a TCP httpd fronted by a gateway.
func startGatewayNet(t *testing.T, gw *gateway.Gateway) (string, *NetServer, func()) {
	t.Helper()
	pool, err := NewPool(core.DefaultConfig(), Config{Mode: ModeSDRaD, Workers: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>home</html>"))
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
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// httpDo sends one raw request and returns the full response bytes.
func httpDo(t *testing.T, addr, method, path string, headers map[string]string) string {
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
	if _, err := conn.Write(BuildRequest(method, path, headers)); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	buf := make([]byte, 8192)
	for {
		n, rerr := conn.Read(buf)
		out.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return out.String()
}

// TestHTTPGatewayAuth drives the bearer-token pipeline over real TCP:
// missing or unknown credentials answer a uniform 401; a valid token
// reaches the backend.
func TestHTTPGatewayAuth(t *testing.T) {
	gw := testGateway(t, gateway.Limits{Burst: 100, RefillEvery: 1, MaxInflight: 8})
	addr, _, stop := startGatewayNet(t, gw)
	defer stop()

	out := httpDo(t, addr, "GET", "/", nil)
	if !strings.HasPrefix(out, "HTTP/1.1 401 Unauthorized\r\n") {
		t.Fatalf("no-auth response: %q", out)
	}
	bad := httpDo(t, addr, "GET", "/", map[string]string{"authorization": "Bearer wrong"})
	if !strings.HasPrefix(bad, "HTTP/1.1 401 Unauthorized\r\n") {
		t.Fatalf("bad-token response: %q", bad)
	}
	// The two rejections are byte-identical: the response reveals
	// nothing about which part of the credential failed.
	if out != bad {
		t.Fatalf("401 responses differ:\n%q\n%q", out, bad)
	}
	good := httpDo(t, addr, "GET", "/", map[string]string{"authorization": "Bearer tok-alice"})
	if !strings.HasPrefix(good, "HTTP/1.1 200 OK\r\n") || !strings.Contains(good, "<html>home</html>") {
		t.Fatalf("authed response: %q", good)
	}
}

// TestHTTPGatewayRateLimit floods one tenant past its burst and checks
// the 429 carries a deterministic Retry-After header while the other
// tenant is untouched.
func TestHTTPGatewayRateLimit(t *testing.T) {
	gw := testGateway(t, gateway.Limits{Burst: 2, RefillEvery: 100, MaxInflight: 8})
	addr, _, stop := startGatewayNet(t, gw)
	defer stop()

	hdr := map[string]string{"authorization": "Bearer tok-alice"}
	for i := 0; i < 2; i++ {
		if out := httpDo(t, addr, "GET", "/", hdr); !strings.HasPrefix(out, "HTTP/1.1 200") {
			t.Fatalf("burst request %d: %q", i, out)
		}
	}
	out := httpDo(t, addr, "GET", "/", hdr)
	if !strings.HasPrefix(out, "HTTP/1.1 429 Too Many Requests\r\n") {
		t.Fatalf("throttled response: %q", out)
	}
	if !strings.Contains(out, "\r\nRetry-After: 1\r\n") {
		t.Fatalf("throttled response missing Retry-After: %q", out)
	}
	if !strings.Contains(out, "rate limited, retry-after-cycles=") {
		t.Fatalf("throttled body not the typed rendering: %q", out)
	}
	// The co-tenant's bucket is untouched by the flood.
	other := httpDo(t, addr, "GET", "/", map[string]string{"authorization": "Bearer tok-mal"})
	if !strings.HasPrefix(other, "HTTP/1.1 200") {
		t.Fatalf("co-tenant response: %q", other)
	}
}

// TestHTTPGatewayLifecycle exercises /healthz and /drainz end to end:
// health is open and reports ok, drain requires credentials, and a
// drained server answers 503 with the health state flipped.
func TestHTTPGatewayLifecycle(t *testing.T) {
	gw := testGateway(t, gateway.Limits{Burst: 100, RefillEvery: 1, MaxInflight: 8})
	addr, ns, stop := startGatewayNet(t, gw)
	defer stop()

	out := httpDo(t, addr, "GET", "/healthz", nil)
	if !strings.HasPrefix(out, "HTTP/1.1 200 OK\r\n") || !strings.Contains(out, `"state": "ok"`) {
		t.Fatalf("healthz: %q", out)
	}
	// Drain without credentials is refused and changes nothing.
	if out := httpDo(t, addr, "GET", "/drainz", nil); !strings.HasPrefix(out, "HTTP/1.1 401") {
		t.Fatalf("unauthenticated drainz: %q", out)
	}
	if ns.Draining() {
		t.Fatal("unauthenticated drainz drained the server")
	}
	// Authenticated drain succeeds.
	hdr := map[string]string{"authorization": "Bearer tok-alice"}
	if out := httpDo(t, addr, "GET", "/drainz", hdr); !strings.HasPrefix(out, "HTTP/1.1 200") {
		t.Fatalf("drainz: %q", out)
	}
	// Admission now answers 503 draining; health flips and reports 503.
	out = httpDo(t, addr, "GET", "/", hdr)
	if !strings.HasPrefix(out, "HTTP/1.1 503 Service Unavailable\r\n") || !strings.Contains(out, "draining") {
		t.Fatalf("post-drain request: %q", out)
	}
	out = httpDo(t, addr, "GET", "/healthz", nil)
	if !strings.HasPrefix(out, "HTTP/1.1 503") || !strings.Contains(out, `"draining": true`) {
		t.Fatalf("post-drain healthz: %q", out)
	}
	if err := ns.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ns.Close(); err != nil {
		t.Fatalf("repeat Close: %v", err)
	}
}

// TestHTTPGatewayQuarantine trips the circuit breaker over the wire:
// repeated exploit requests quarantine the hostile tenant (429), while
// the benign tenant keeps serving.
func TestHTTPGatewayQuarantine(t *testing.T) {
	table, err := gateway.NewTable(map[string]string{"alice": "tok-alice", "mal": "tok-mal"})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Table:           table,
		Limits:          gateway.Limits{Burst: 100, RefillEvery: 1, MaxInflight: 8},
		QuarantineAfter: 3,
		Window:          8,
		ProbeEvery:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startGatewayNet(t, gw)
	defer stop()

	evil := map[string]string{"authorization": "Bearer tok-mal", "x-exploit": "1"}
	for i := 0; i < 3; i++ {
		out := httpDo(t, addr, "GET", "/", evil)
		if !strings.HasPrefix(out, "HTTP/1.1 400") {
			t.Fatalf("exploit request %d: %q", i, out)
		}
	}
	if gw.Stats().Get("mal").Quarantines != 1 {
		t.Fatal("hostile tenant not quarantined after 3 contained exploits")
	}
	out := httpDo(t, addr, "GET", "/", evil)
	if !strings.HasPrefix(out, "HTTP/1.1 429") || !strings.Contains(out, "quarantined") {
		t.Fatalf("quarantined response: %q", out)
	}
	// Benign tenant unaffected.
	good := httpDo(t, addr, "GET", "/", map[string]string{"authorization": "Bearer tok-alice"})
	if !strings.HasPrefix(good, "HTTP/1.1 200") {
		t.Fatalf("benign tenant during quarantine: %q", good)
	}
}
