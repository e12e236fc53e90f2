package sdrad

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/lifecycle"
)

func TestQuickstartFlow(t *testing.T) {
	sup := New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dom.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	var got []byte
	err = dom.Do(context.Background(), func(c *Ctx) error {
		p := c.MustAlloc(32)
		c.MustStore(p, []byte("hello sdrad"))
		got = make([]byte, 11)
		c.MustLoad(p, got)
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(got) != "hello sdrad" {
		t.Errorf("got %q", got)
	}
	st, err := dom.Stats()
	if err != nil || st.Entries != 1 || st.CleanExits != 1 {
		t.Errorf("stats = %+v, %v", st, err)
	}
}

func TestViolationRewindsAndReports(t *testing.T) {
	sup := New()
	dom, err := sup.NewDomain()
	if err != nil {
		t.Fatal(err)
	}
	err = dom.Do(context.Background(), func(c *Ctx) error {
		c.MustStore64(0xdead0000, 1) // wild write
		return nil
	})
	v, ok := IsViolation(err)
	if !ok {
		t.Fatalf("err = %v, want violation", err)
	}
	if v.UDI != 1 {
		t.Errorf("UDI = %d", v.UDI)
	}
	st, _ := dom.Stats()
	if st.Violations != 1 || st.Rewinds != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.RewindTime <= 0 || st.RewindTime > time.Millisecond {
		t.Errorf("rewind time = %v, want µs-scale", st.RewindTime)
	}
	counts := sup.DetectionCounts()
	if counts["segfault"] != 1 {
		t.Errorf("detection counts = %v", counts)
	}
}

func TestRunWithFallback(t *testing.T) {
	sup := New()
	dom, _ := sup.NewDomain()
	var fellBack bool
	err := dom.Do(context.Background(),
		func(c *Ctx) error {
			c.Violate(errors.New("bad parse"))
			return nil
		},
		WithFallback(func(v *ViolationError) error {
			fellBack = true
			return nil
		}),
	)
	if err != nil || !fellBack {
		t.Errorf("fallback: err=%v ran=%v", err, fellBack)
	}
	// Application errors skip the fallback.
	sentinel := errors.New("app")
	err = dom.Do(context.Background(),
		func(*Ctx) error { return sentinel },
		WithFallback(func(*ViolationError) error {
			t.Error("fallback ran for app error")
			return nil
		}),
	)
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestTrustedSideDataExchange(t *testing.T) {
	sup := New()
	dom, _ := sup.NewDomain()
	addr, err := dom.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dom.Write(addr, []byte("input")); err != nil {
		t.Fatal(err)
	}
	err = dom.Do(context.Background(), func(c *Ctx) error {
		buf := make([]byte, 5)
		c.MustLoad(addr, buf)
		c.MustStore(addr, []byte("INPUT"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := dom.Read(addr, 5)
	if err != nil || string(out) != "INPUT" {
		t.Errorf("Read = %q, %v", out, err)
	}
	if err := dom.Free(addr); err != nil {
		t.Errorf("Free: %v", err)
	}
}

func TestDomainOptions(t *testing.T) {
	sup := New()
	dom, err := sup.NewDomain(WithHeapPages(4), WithMaxHeapPages(8), WithStackPages(2))
	if err != nil {
		t.Fatal(err)
	}
	// Max heap 8 pages = 32 KiB: a large allocation must fail.
	err = dom.Do(context.Background(), func(c *Ctx) error {
		_, err := c.Alloc(1 << 20)
		if err == nil {
			return errors.New("oversized alloc succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSupervisorOptions(t *testing.T) {
	m := DefaultCostModel()
	m.WRPKRU = 1000
	sup := New(WithCostModel(m), WithIntegrityCheckOnExit(false), WithZeroOnDiscard(false))
	dom, _ := sup.NewDomain()
	before := sup.VirtualTime()
	_ = dom.Do(context.Background(), func(*Ctx) error { return nil })
	if sup.VirtualTime() <= before {
		t.Error("virtual time did not advance")
	}
	// Integrity sweep off: an overflow goes unnoticed at exit.
	err := dom.Do(context.Background(), func(c *Ctx) error {
		p := c.MustAlloc(16)
		c.MustStore(p, make([]byte, 32))
		return nil
	})
	if err != nil {
		t.Errorf("sweep-off overflow err = %v", err)
	}
}

func TestFourteenDomainLimit(t *testing.T) {
	// 16 keys - key 0 (default) - the root-protected key = 14 domains.
	sup := New()
	var doms []*Domain
	for i := 0; i < 14; i++ {
		d, err := sup.NewDomain(WithHeapPages(1), WithStackPages(1))
		if err != nil {
			t.Fatalf("domain %d: %v", i, err)
		}
		doms = append(doms, d)
	}
	if _, err := sup.NewDomain(); err == nil {
		t.Error("15th domain accepted")
	}
	// Closing one frees a key for reuse.
	if err := doms[7].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sup.NewDomain(WithHeapPages(1), WithStackPages(1)); err != nil {
		t.Errorf("domain after close: %v", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	sup := New()
	dom, _ := sup.NewDomain()
	if err := dom.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is memoized: the second call is a no-op returning the first
	// call's result, per the lifecycle contract.
	if err := dom.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if got := dom.State(); got != lifecycle.StateStopped {
		t.Errorf("state after close = %v, want %v", got, lifecycle.StateStopped)
	}
	if err := dom.Do(context.Background(), func(*Ctx) error { return nil }); err == nil {
		t.Error("Run on closed domain accepted")
	}
	// Stop after Close is still an illegal transition (strict Stop).
	if err := dom.Stop(context.Background()); err == nil {
		t.Error("Stop after Close accepted")
	}
}

func TestBridgeEndToEnd(t *testing.T) {
	sup := New()
	b, err := sup.NewBridge(CodecBinary)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	err = b.Register(Foreign{
		Name: "sum",
		Fn: func(_ *Ctx, args []any) ([]any, error) {
			var s int64
			for _, a := range args {
				s += a.(int64)
			}
			return []any{s}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Call("sum", int64(1), int64(2), int64(3))
	if err != nil || res[0] != int64(6) {
		t.Errorf("Call = %v, %v", res, err)
	}
	if b.Stats().Calls != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
	if b.Domain() == nil {
		t.Error("nil bridge domain")
	}
}

func TestBridgeUnknownCodec(t *testing.T) {
	sup := New()
	if _, err := sup.NewBridge("msgpack"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestBridgeFallback(t *testing.T) {
	sup := New()
	b, err := sup.NewBridge("")
	if err != nil {
		t.Fatal(err)
	}
	_ = b.Register(Foreign{
		Name: "parse",
		Fn: func(c *Ctx, args []any) ([]any, error) {
			c.MustStore64(0, 1) // null write
			return nil, nil
		},
		Fallback: func(args []any, v *ViolationError) ([]any, error) {
			return []any{"fallback"}, nil
		},
	})
	res, err := b.Call("parse")
	if err != nil || res[0] != "fallback" {
		t.Errorf("Call = %v, %v", res, err)
	}
	if b.Stats().Violations != 1 || b.Stats().Fallbacks != 1 {
		t.Errorf("stats = %+v", b.Stats())
	}
}

func TestNestedDomainsViaCtx(t *testing.T) {
	sup := New()
	outer, _ := sup.NewDomain()
	inner, _ := sup.NewDomain()
	err := outer.Do(context.Background(), func(oc *Ctx) error {
		// Nested entry through the inner domain's UDI.
		nerr := oc.Enter(2, func(ic *Ctx) error {
			ic.MustStore64(0xbad000, 1)
			return nil
		})
		if _, ok := IsViolation(nerr); !ok {
			return errors.New("nested violation not delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ist, _ := inner.Stats()
	ost, _ := outer.Stats()
	if ist.Violations != 1 || ost.Violations != 0 {
		t.Errorf("violations: inner=%d outer=%d", ist.Violations, ost.Violations)
	}
}

func TestMemoryStatsIntrospection(t *testing.T) {
	sup := New()
	before := sup.MemoryStats()
	dom, _ := sup.NewDomain()
	mid := sup.MemoryStats()
	if mid.MappedPages <= before.MappedPages || mid.Domains != 1 {
		t.Errorf("stats after domain: %+v", mid)
	}
	_ = dom.Do(context.Background(), func(c *Ctx) error {
		p := c.MustAlloc(128)
		c.MustStore(p, make([]byte, 128))
		return nil
	})
	_ = dom.Do(context.Background(), func(c *Ctx) error {
		c.MustStore64(0xdead0000, 1)
		return nil
	})
	after := sup.MemoryStats()
	if after.Stores <= mid.Stores || after.BytesWritten < 128 {
		t.Errorf("traffic not counted: %+v", after)
	}
	if after.Faults == 0 {
		t.Error("fault not counted")
	}
	if err := dom.Close(); err != nil {
		t.Fatal(err)
	}
	if final := sup.MemoryStats(); final.MappedPages != before.MappedPages || final.Domains != 0 {
		t.Errorf("pages leaked: %+v", final)
	}
}
