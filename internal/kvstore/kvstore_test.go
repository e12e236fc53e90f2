package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func newCache(t *testing.T, capacity uint64) (*Cache, *core.System) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	c, err := NewCache(sys, 1, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c, sys
}

func TestCacheSetGetDelete(t *testing.T) {
	c, _ := newCache(t, 1<<20)
	if err := c.Set("a", []byte("hello")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	v, _, hit, err := c.Get("a")
	if err != nil || !hit || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get = %q, %v, %v", v, hit, err)
	}
	if _, _, hit, _ := c.Get("missing"); hit {
		t.Error("phantom hit")
	}
	found, err := c.Delete("a")
	if err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if _, _, hit, _ := c.Get("a"); hit {
		t.Error("deleted key still present")
	}
	if found, _ := c.Delete("a"); found {
		t.Error("double delete reported found")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheReplace(t *testing.T) {
	c, _ := newCache(t, 1<<20)
	_ = c.Set("k", []byte("old"))
	_ = c.Set("k", []byte("newer"))
	v, _, hit, _ := c.Get("k")
	if !hit || string(v) != "newer" {
		t.Errorf("replace failed: %q", v)
	}
	if c.Items() != 1 {
		t.Errorf("Items = %d", c.Items())
	}
	if c.Bytes() != 5 {
		t.Errorf("Bytes = %d, want 5", c.Bytes())
	}
}

// TestCacheOverwriteInPlace: a SET of a resident key reuses the key's
// entry and list element, so it allocates nothing on the host, and makes
// the storage heap's calls in the order a delete then a set would — the
// same virtual cycles. The overwritten key becomes most recently used,
// and an overwrite that needs every other item's room evicts them all
// but never itself.
func TestCacheOverwriteInPlace(t *testing.T) {
	c, sys := newCache(t, 1<<20)
	ref, refSys := newCache(t, 1<<20)
	v1, v2 := bytes.Repeat([]byte("a"), 128), bytes.Repeat([]byte("b"), 200)
	for _, cc := range []*Cache{c, ref} {
		if err := cc.SetItem("k", v1, time.Second, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetItem("k", v2, 0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetItem("k", v2, 0, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := sys.Clock().Cycles(), refSys.Clock().Cycles(); got != want {
		t.Errorf("overwrite took %d cycles, delete+set %d", got, want)
	}
	sys.Clock().AdvanceTime(2 * time.Second) // past the first SET's TTL
	if v, flags, hit, err := c.Get("k"); err != nil || !hit || !bytes.Equal(v, v2) || flags != 7 {
		t.Errorf("after overwrite: %q hit=%v flags=%d err=%v", v, hit, flags, err)
	}
	if c.Items() != 1 || c.Bytes() != uint64(len(v2)) {
		t.Errorf("Items = %d, Bytes = %d", c.Items(), c.Bytes())
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.SetItem("k", v1, 0, 3); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("overwriting a resident key allocates %v times, want 0", allocs)
	}

	small, _ := newCache(t, 1024)
	v := make([]byte, 300)
	for _, k := range []string{"a", "b", "c"} {
		_ = small.Set(k, v)
	}
	_ = small.Set("a", v) // "a" is now the most recently used
	_ = small.Set("d", v) // evicts "b"
	if _, _, hit, _ := small.Get("b"); hit {
		t.Error("LRU item survived eviction")
	}
	if _, _, hit, _ := small.Get("a"); !hit {
		t.Error("overwritten item was evicted before older ones")
	}
	if err := small.Set("a", make([]byte, 1024)); err != nil {
		t.Fatalf("overwrite filling the cache: %v", err)
	}
	if got, _, hit, _ := small.Get("a"); !hit || len(got) != 1024 || small.Items() != 1 || small.Bytes() != 1024 {
		t.Errorf("after a cache-filling overwrite: hit=%v len=%d items=%d bytes=%d", hit, len(got), small.Items(), small.Bytes())
	}
}

func TestCacheEmptyValue(t *testing.T) {
	c, _ := newCache(t, 1<<20)
	if err := c.Set("empty", nil); err != nil {
		t.Fatalf("Set(nil): %v", err)
	}
	v, _, hit, err := c.Get("empty")
	if err != nil || !hit || len(v) != 0 {
		t.Errorf("Get = %q, %v, %v", v, hit, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := newCache(t, 1024)
	v := make([]byte, 300)
	_ = c.Set("a", v)
	_ = c.Set("b", v)
	_ = c.Set("c", v)
	// Touch "a" so "b" is LRU.
	_, _, _, _ = c.Get("a")
	_ = c.Set("d", v) // evicts "b"
	if _, _, hit, _ := c.Get("b"); hit {
		t.Error("LRU item survived eviction")
	}
	if _, _, hit, _ := c.Get("a"); !hit {
		t.Error("recently-used item was evicted")
	}
	if c.Stats().Evictions == 0 {
		t.Error("no evictions recorded")
	}
}

func TestCacheLimits(t *testing.T) {
	c, _ := newCache(t, 1024)
	if err := c.Set("big", make([]byte, 2048)); !errors.Is(err, ErrCapacity) {
		t.Errorf("oversized set = %v, want ErrCapacity", err)
	}
	big, _ := newCache(t, 16<<20)
	if err := big.Set("huge", make([]byte, MaxValueSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-limit set = %v, want ErrTooLarge", err)
	}
}

func TestWarmupPopulates(t *testing.T) {
	c, _ := newCache(t, 1<<20)
	n, err := Warmup(c, 512<<10, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || c.Bytes() < 500<<10 || c.Bytes() > 512<<10 {
		t.Errorf("warmup: n=%d bytes=%d", n, c.Bytes())
	}
}

func newServer(t *testing.T, mode Mode) (*Server, *core.System) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{Mode: mode, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return srv, sys
}

func TestServerBasicOps(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeSDRaD} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _ := newServer(t, mode)
			set := workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v1")}
			if resp := srv.Handle(0, set); !resp.OK || resp.Err != nil {
				t.Fatalf("SET: %+v", resp)
			}
			get := workload.Request{Op: workload.OpGet, Key: "k"}
			resp := srv.Handle(1, get)
			if !resp.OK || string(resp.Value) != "v1" || resp.Err != nil {
				t.Fatalf("GET: %+v", resp)
			}
			if resp.Latency <= 0 {
				t.Error("no latency recorded")
			}
			del := workload.Request{Op: workload.OpDelete, Key: "k"}
			if resp := srv.Handle(0, del); !resp.OK {
				t.Fatalf("DELETE: %+v", resp)
			}
			if resp := srv.Handle(0, get); resp.OK {
				t.Error("GET after DELETE hit")
			}
		})
	}
}

func TestSDRaDContainsMaliciousRequest(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	// Benign state.
	_ = srv.Handle(0, workload.Request{Op: workload.OpSet, Key: "victim", Value: []byte("data")})

	evil := workload.Request{Op: workload.OpSet, Key: "x", Value: []byte("evil"), Malicious: true}
	resp := srv.Handle(1, evil)
	if !resp.Contained {
		t.Fatalf("attack not contained: %+v", resp)
	}
	if resp.Err == nil {
		t.Error("malicious client should see an error")
	}
	// Cache intact, service live.
	r := srv.Handle(0, workload.Request{Op: workload.OpGet, Key: "victim"})
	if !r.OK || string(r.Value) != "data" {
		t.Errorf("victim data after attack: %+v", r)
	}
	if srv.Stats().Violations != 1 {
		t.Errorf("violations = %d", srv.Stats().Violations)
	}
}

func TestSDRaDModeNeverDropsBenignTraffic(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 100})
	if err != nil {
		t.Fatal(err)
	}
	mal := &workload.MaliciousEvery{G: gen, N: 20}
	benignErrors := 0
	for i := 0; i < 1000; i++ {
		req := mal.Next()
		resp := srv.Handle(i%8, req)
		if !req.Malicious && resp.Err != nil {
			benignErrors++
		}
	}
	if benignErrors != 0 {
		t.Errorf("benign errors under attack = %d, want 0", benignErrors)
	}
	if srv.Stats().Violations != 50 {
		t.Errorf("violations = %d, want 50", srv.Stats().Violations)
	}
}

func TestServerConfigValidation(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, _ := NewCache(sys, 1, 1<<20)
	if _, err := NewServer(sys, cache, ServerConfig{Mode: Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeNative.String() != "native" || ModeSDRaD.String() != "sdrad" {
		t.Error("mode strings")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode should render")
	}
}

func TestTTLExpiry(t *testing.T) {
	c, sys := newCache(t, 1<<20)
	if err := c.SetItem("ephemeral", []byte("gone soon"), 10*time.Second, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("forever", []byte("stays")); err != nil {
		t.Fatal(err)
	}
	// Before expiry: hit.
	if _, _, hit, _ := c.Get("ephemeral"); !hit {
		t.Fatal("item expired too early")
	}
	// Advance virtual time past the TTL.
	sys.Clock().AdvanceTime(11 * time.Second)
	if _, _, hit, _ := c.Get("ephemeral"); hit {
		t.Error("item survived its TTL")
	}
	if _, _, hit, _ := c.Get("forever"); !hit {
		t.Error("non-TTL item vanished")
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Errorf("expired = %d, want 1", st.Expired)
	}
	// Expired items release their bytes.
	if c.Items() != 1 {
		t.Errorf("items = %d, want 1", c.Items())
	}
	if c.Bytes() != uint64(len("stays")) {
		t.Errorf("bytes = %d", c.Bytes())
	}
}

func TestTTLReplaceResetsExpiry(t *testing.T) {
	c, sys := newCache(t, 1<<20)
	_ = c.SetItem("k", []byte("v1"), time.Second, 0)
	sys.Clock().AdvanceTime(900 * time.Millisecond)
	_ = c.SetItem("k", []byte("v2"), time.Second, 0) // replace: fresh TTL
	sys.Clock().AdvanceTime(500 * time.Millisecond)
	v, _, hit, err := c.Get("k")
	if err != nil || !hit || string(v) != "v2" {
		t.Errorf("Get = %q, %v, %v (replace should reset expiry)", v, hit, err)
	}
}

func TestProtocolTTLRejectsBadExptime(t *testing.T) {
	if _, err := ReadCommand(reader("set k 0 -5 2\r\nxx\r\n")); !errors.Is(err, ErrProtocol) {
		t.Errorf("negative exptime = %v, want ErrProtocol", err)
	}
	if _, err := ReadCommand(reader("set k 0 abc 2\r\nxx\r\n")); !errors.Is(err, ErrProtocol) {
		t.Errorf("garbage exptime = %v, want ErrProtocol", err)
	}
	cmd, err := ReadCommand(reader("set k 0 30 2\r\nxx\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Req.TTL != 30*time.Second {
		t.Errorf("TTL = %v, want 30s", cmd.Req.TTL)
	}
}

func TestServerAppliesTTLFromRequest(t *testing.T) {
	srv, sys := newServer(t, ModeSDRaD)
	set := workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v"), TTL: time.Second}
	if resp := srv.Handle(0, set); !resp.OK {
		t.Fatalf("SET: %+v", resp)
	}
	sys.Clock().AdvanceTime(2 * time.Second)
	if resp := srv.Handle(0, workload.Request{Op: workload.OpGet, Key: "k"}); resp.OK {
		t.Error("GET hit after TTL")
	}
}

func TestSandboxModeContainsButCostsMore(t *testing.T) {
	sandbox, _ := newServer(t, ModeSandbox)
	sdrad, _ := newServer(t, ModeSDRaD)

	// Containment parity: a malicious request kills only the sandbox
	// child; the service keeps working.
	evil := workload.Request{Op: workload.OpSet, Key: "x", Value: []byte("e"), Malicious: true}
	resp := sandbox.Handle(0, evil)
	if !resp.Contained || resp.Err == nil {
		t.Fatalf("sandbox attack resp: %+v", resp)
	}
	if r := sandbox.Handle(0, workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v")}); !r.OK {
		t.Fatalf("sandbox post-attack: %+v", r)
	}

	// Cost ordering (§IV): per-request sandbox cost >> SDRaD cost.
	benign := workload.Request{Op: workload.OpGet, Key: "k"}
	var sbTotal, sdTotal time.Duration
	for i := 0; i < 200; i++ {
		sbTotal += sandbox.Handle(0, benign).Latency
		sdTotal += sdrad.Handle(0, benign).Latency
	}
	if sbTotal <= sdTotal*2 {
		t.Errorf("sandbox (%v) should cost >2x sdrad (%v) per request", sbTotal, sdTotal)
	}
}

func TestSandboxModeString(t *testing.T) {
	if ModeSandbox.String() != "sandbox" {
		t.Error("mode string")
	}
}

func TestCacheAccessors(t *testing.T) {
	c, _ := newCache(t, 1<<20)
	if c.Capacity() != 1<<20 {
		t.Errorf("Capacity = %d", c.Capacity())
	}
}

func TestWorkersCannotTouchCacheStorage(t *testing.T) {
	// The central isolation property of the memcached retrofit: a worker
	// domain's PKRU can never read or write cache storage pages directly.
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := NewCache(sys, 1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Set("secret", []byte("cache payload")); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(sys, cache, ServerConfig{Mode: ModeSDRaD, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find the value's address via a root-side lookup of the element.
	el := cache.item["secret"]
	addr := el.Value.(*entry).addr
	verr := sys.Enter(srv.cfg.FirstWorkerUDI, func(c *core.DomainCtx) error {
		buf := make([]byte, 5)
		c.MustLoad(addr, buf) // must trap: storage-domain key not enabled
		return nil
	})
	if _, ok := core.IsViolation(verr); !ok {
		t.Fatalf("worker read of cache storage = %v, want violation", verr)
	}
	// Data unchanged.
	v, _, hit, _ := cache.Get("secret")
	if !hit || string(v) != "cache payload" {
		t.Errorf("cache damaged: %q %v", v, hit)
	}
}

func TestApplyUnknownOp(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	resp := srv.Handle(0, workload.Request{Op: workload.Op(9), Key: "k"})
	if resp.Err == nil {
		t.Error("unknown op accepted")
	}
}

func TestFlagsRoundTrip(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	set := workload.Request{Op: workload.OpSet, Key: "k", Value: []byte("v"), Flags: 0xdead}
	if resp := srv.Handle(0, set); !resp.OK {
		t.Fatalf("SET: %+v", resp)
	}
	resp := srv.Handle(0, workload.Request{Op: workload.OpGet, Key: "k"})
	if !resp.OK || resp.Flags != 0xdead {
		t.Errorf("GET flags = %#x, want 0xdead", resp.Flags)
	}
	// Over the wire.
	cmd, err := ReadCommand(reader("set f 42 0 2\r\nxy\r\n"))
	if err != nil || cmd.Req.Flags != 42 {
		t.Fatalf("parsed flags = %d, %v", cmd.Req.Flags, err)
	}
	r2 := srv.Handle(0, cmd.Req)
	if !r2.OK {
		t.Fatal(r2.Err)
	}
	var buf bytes.Buffer
	get := workload.Request{Op: workload.OpGet, Key: "f"}
	if err := WriteResponse(&buf, get, srv.Handle(0, get)); err != nil {
		t.Fatal(err)
	}
	if want := "VALUE f 42 2\r\nxy\r\nEND\r\n"; buf.String() != want {
		t.Errorf("wire = %q, want %q", buf.String(), want)
	}
	if _, err := ReadCommand(reader("set k abc 0 2\r\nxy\r\n")); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad flags = %v, want ErrProtocol", err)
	}
}

// fmtPayload is appendPayload as it was written with fmt, the reference
// the append form must match byte for byte: the bytes are what the
// domain parses, so they set its virtual cycles.
func fmtPayload(req workload.Request) []byte {
	switch req.Op {
	case workload.OpSet:
		return append([]byte(fmt.Sprintf("set %s 0 0 %d\r\n", req.Key, len(req.Value))), append(req.Value, '\r', '\n')...)
	case workload.OpDelete:
		return []byte(fmt.Sprintf("delete %s\r\n", req.Key))
	default:
		return []byte(fmt.Sprintf("get %s\r\n", req.Key))
	}
}

// TestPayloadMatchesFmt pins appendPayload's bytes, appended after what
// dst already holds, and that rendering into a buffer with room
// allocates nothing.
func TestPayloadMatchesFmt(t *testing.T) {
	buf := make([]byte, 0, 200000)
	for _, req := range []workload.Request{
		{Op: workload.OpGet, Key: "k"},
		{Op: workload.OpDelete, Key: "key-with-dashes"},
		{Op: workload.OpSet, Key: "k", Value: []byte{}},
		{Op: workload.OpSet, Key: "victim", Value: []byte(AttackMarker + "-payload")},
		{Op: workload.OpSet, Key: "big", Value: bytes.Repeat([]byte("v"), 123456)},
	} {
		want := fmtPayload(req)
		if got := appendPayload(buf[:0], req); !bytes.Equal(got, want) {
			t.Errorf("appendPayload(%v %q, %d bytes) = %q, want %q", req.Op, req.Key, len(req.Value), got[:min(len(got), 40)], want[:min(len(want), 40)])
		}
		if got := appendPayload([]byte("prefix"), req); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("appendPayload(%v %q) after a prefix = %q", req.Op, req.Key, got[:min(len(got), 40)])
		}
		if allocs := testing.AllocsPerRun(20, func() { buf = appendPayload(buf[:0], req) }); allocs != 0 {
			t.Errorf("appendPayload(%v %q) into a sized buffer allocates %v times, want 0", req.Op, req.Key, allocs)
		}
	}
}
