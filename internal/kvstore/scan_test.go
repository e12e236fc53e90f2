package kvstore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/workload"
)

func scanTestServer(t *testing.T) (*Server, *core.System) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{
		Mode:         ModeSDRaD,
		Workers:      2,
		InterArrival: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, sys
}

func mustSet(t *testing.T, srv *Server, key, val string) {
	t.Helper()
	resp := srv.Handle(0, workload.Request{Op: workload.OpSet, Key: key, Value: []byte(val)})
	if !resp.OK || resp.Err != nil {
		t.Fatalf("set %q: %+v", key, resp)
	}
}

// TestScanPaginationCoversTable walks a table through small pages and
// asserts every key appears exactly once, in ascending order, with its
// value and flags.
func TestScanPaginationCoversTable(t *testing.T) {
	srv, _ := scanTestServer(t)
	const n = 53
	for i := 0; i < n; i++ {
		mustSet(t, srv, fmt.Sprintf("key-%08d", i), fmt.Sprintf("val-%d", i))
	}
	seen := make(map[string]string)
	cursor := ""
	last := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("scan did not terminate")
		}
		res, err := srv.Scan("", cursor, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range res.Items {
			if it.Key <= last {
				t.Fatalf("keys out of order: %q after %q", it.Key, last)
			}
			last = it.Key
			if _, dup := seen[it.Key]; dup {
				t.Fatalf("key %q returned twice", it.Key)
			}
			seen[it.Key] = string(it.Value)
		}
		if res.Cursor == "" {
			break
		}
		if len(res.Items) != 7 {
			t.Fatalf("partial page %d items with cursor set", len(res.Items))
		}
		cursor = res.Cursor
	}
	if len(seen) != n {
		t.Fatalf("scan covered %d keys, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%08d", i)
		if seen[k] != fmt.Sprintf("val-%d", i) {
			t.Errorf("key %q = %q", k, seen[k])
		}
	}
}

// TestScanPrefixFilterAndClamp checks the prefix filter and the
// MaxScanPage clamp.
func TestScanPrefixFilterAndClamp(t *testing.T) {
	srv, _ := scanTestServer(t)
	for i := 0; i < 10; i++ {
		mustSet(t, srv, fmt.Sprintf("aaa-%02d", i), "a")
		mustSet(t, srv, fmt.Sprintf("bbb-%02d", i), "b")
	}
	res, err := srv.Scan("aaa-", "", 0) // 0 clamps to MaxScanPage
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 10 || res.Cursor != "" {
		t.Fatalf("prefix scan = %d items cursor %q, want 10 items no cursor", len(res.Items), res.Cursor)
	}
	for _, it := range res.Items {
		if !strings.HasPrefix(it.Key, "aaa-") {
			t.Errorf("prefix leak: %q", it.Key)
		}
	}
	if _, err := srv.Scan("", "", MaxScanPage+1000); err != nil {
		t.Fatalf("over-limit scan: %v", err)
	}
}

// TestScanChargesVirtualClock asserts a scan is not free: the virtual
// clock advances, and walking more data charges more.
func TestScanChargesVirtualClock(t *testing.T) {
	small, smallSys := scanTestServer(t)
	large, largeSys := scanTestServer(t)
	for i := 0; i < 4; i++ {
		mustSet(t, small, fmt.Sprintf("key-%08d", i), strings.Repeat("x", 32))
	}
	for i := 0; i < 64; i++ {
		mustSet(t, large, fmt.Sprintf("key-%08d", i), strings.Repeat("x", 512))
	}
	beforeSmall := smallSys.Clock().Now()
	if _, err := small.Scan("", "", MaxScanPage); err != nil {
		t.Fatal(err)
	}
	chargeSmall := smallSys.Clock().Now() - beforeSmall
	beforeLarge := largeSys.Clock().Now()
	if _, err := large.Scan("", "", MaxScanPage); err != nil {
		t.Fatal(err)
	}
	chargeLarge := largeSys.Clock().Now() - beforeLarge
	if chargeSmall <= 0 {
		t.Fatalf("small scan charged nothing")
	}
	if chargeLarge <= chargeSmall {
		t.Fatalf("64x512B scan charged %v, not more than 4x32B scan's %v", chargeLarge, chargeSmall)
	}
}

// TestScanDeterministic asserts two servers fed the same operations
// return byte-identical scan pages.
func TestScanDeterministic(t *testing.T) {
	a, _ := scanTestServer(t)
	b, _ := scanTestServer(t)
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%08d", i*7%20)
		mustSet(t, a, k, fmt.Sprintf("v%d", i))
		mustSet(t, b, k, fmt.Sprintf("v%d", i))
	}
	ra, err := a.Scan("", "", 16)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Scan("", "", 16)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Cursor != rb.Cursor || len(ra.Items) != len(rb.Items) {
		t.Fatalf("shape diverged: %d/%q vs %d/%q", len(ra.Items), ra.Cursor, len(rb.Items), rb.Cursor)
	}
	for i := range ra.Items {
		if ra.Items[i].Key != rb.Items[i].Key || !bytes.Equal(ra.Items[i].Value, rb.Items[i].Value) {
			t.Fatalf("item %d diverged: %+v vs %+v", i, ra.Items[i], rb.Items[i])
		}
	}
}

// TestScanExpiredLazyRemoval checks expired items are skipped (and
// lazily removed) by the walk.
func TestScanExpiredLazyRemoval(t *testing.T) {
	srv, _ := scanTestServer(t)
	resp := srv.Handle(0, workload.Request{Op: workload.OpSet, Key: "fleeting", Value: []byte("x"), TTL: time.Nanosecond})
	if !resp.OK || resp.Err != nil {
		t.Fatalf("set: %+v", resp)
	}
	mustSet(t, srv, "lasting", "y")
	// Push virtual time past the TTL with more arrivals.
	for i := 0; i < 5; i++ {
		srv.Handle(0, workload.Request{Op: workload.OpGet, Key: "lasting"})
	}
	res, err := srv.Scan("", "", MaxScanPage)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 1 || res.Items[0].Key != "lasting" {
		t.Fatalf("scan = %+v, want only %q", res.Items, "lasting")
	}
}

// TestScanDrainedGate asserts a drained server refuses scans with the
// typed drain error.
func TestScanDrainedGate(t *testing.T) {
	srv, _ := scanTestServer(t)
	mustSet(t, srv, "k", "v")
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Scan("", "", 8); err != ErrDrained {
		t.Fatalf("drained scan err = %v, want ErrDrained", err)
	}
}

// TestPoolScanMergesShards asserts a pool scan merges per-shard pages
// into one globally sorted cursor walk with no duplicates or holes.
func TestPoolScanMergesShards(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
	}, 4, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	const n = 60
	for i := 0; i < n; i++ {
		resp := pool.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpSet, Key: fmt.Sprintf("key-%08d", i), Value: []byte("v")})
		if !resp.OK || resp.Err != nil {
			t.Fatalf("set %d: %+v", i, resp)
		}
	}
	seen := make(map[string]bool)
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("pool scan did not terminate")
		}
		res, err := pool.Scan("key-", cursor, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range res.Items {
			if seen[it.Key] {
				t.Fatalf("key %q returned twice", it.Key)
			}
			if i > 0 && res.Items[i-1].Key >= it.Key {
				t.Fatalf("page out of order at %d", i)
			}
			seen[it.Key] = true
		}
		if res.Cursor == "" {
			break
		}
		cursor = res.Cursor
	}
	if len(seen) != n {
		t.Fatalf("pool scan covered %d keys, want %d", len(seen), n)
	}
}

// duplexConn adapts an input script and output buffer to the
// io.ReadWriter serveConn wants.
type duplexConn struct {
	io.Reader
	io.Writer
}

// TestNetServerScanCommand drives the protocol surface end to end:
// scan pages as VALUE lines with SCAN_MORE cursors, and — with a
// gateway installed — per-page quota admission that throttles a
// tenant's table walk once its burst is spent.
func TestNetServerScanCommand(t *testing.T) {
	pool, err := NewPool(core.DefaultConfig(), ServerConfig{
		Mode: ModeSDRaD, Workers: 2, InterArrival: time.Nanosecond,
	}, 2, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	ns := serveQueued(t, pool, nil)
	for i := 0; i < 6; i++ {
		resp := pool.HandleContext(context.Background(), 0, workload.Request{Op: workload.OpSet, Key: fmt.Sprintf("key-%d", i), Value: []byte("v")})
		if !resp.OK || resp.Err != nil {
			t.Fatalf("seed %d: %+v", i, resp)
		}
	}

	var out bytes.Buffer
	ns.serveConn(1, &duplexConn{strings.NewReader("scan key- 4\r\nscan key- 4 key-3\r\nscan * 64\r\nquit\r\n"), &out})
	got := out.String()
	if !strings.Contains(got, "VALUE key-0 0 1") || !strings.Contains(got, "SCAN_MORE key-3") {
		t.Fatalf("first page missing VALUE/SCAN_MORE: %q", got)
	}
	if !strings.Contains(got, "VALUE key-4 0 1") || !strings.Contains(got, "VALUE key-5 0 1") {
		t.Fatalf("resumed page missing tail keys: %q", got)
	}

	// Gateway: two pages within burst, third throttled.
	table, err := gateway.NewTable(map[string]string{"alice": "tok-alice"})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Table:  table,
		Limits: gateway.Limits{Burst: 2, RefillEvery: 1 << 30, MaxInflight: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ns.SetGateway(gw)
	out.Reset()
	ns.serveConn(2, &duplexConn{strings.NewReader("scan key- 2\r\nauth tok-alice\r\nscan key- 2\r\nscan key- 2 key-1\r\nscan key- 2 key-3\r\nquit\r\n"), &out})
	got = out.String()
	if !strings.Contains(got, "CLIENT_ERROR auth required") {
		t.Fatalf("unauthenticated scan not refused: %q", got)
	}
	pages := strings.Count(got, "SCAN_MORE")
	if pages != 2 {
		t.Fatalf("admitted pages = %d, want 2 (burst)", pages)
	}
	if !strings.Contains(got, "SERVER_ERROR") {
		t.Fatalf("third page not throttled: %q", got)
	}
}
