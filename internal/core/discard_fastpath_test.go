package core

import (
	"testing"

	"repro/internal/mem"
)

// TestDiscardScrubIsByteIdenticalToFullZeroing: the system-level
// differential test for dirty-page-bounded discard — after a workload
// dirties part of the heap and the domain is discarded, every byte of
// every heap page reads zero, exactly the state the seed's full scrub
// produced.
func TestDiscardScrubIsByteIdenticalToFullZeroing(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	d, err := sys.CreateDomain(DomainConfig{HeapPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Dirty a few pages with recognizable bytes, leave most untouched.
	err = sys.Enter(d.UDI(), func(c *DomainCtx) error {
		for i := 0; i < 5; i++ {
			p := c.MustAlloc(3000)
			buf := make([]byte, 3000)
			for j := range buf {
				buf[j] = 0xc7
			}
			c.MustStore(p, buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Mem().DirtyPages() == 0 {
		t.Fatal("workload dirtied no pages")
	}
	if err := sys.DiscardDomain(d.UDI()); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Heap().Regions() {
		buf := make([]byte, mem.PageSize)
		for pg := 0; pg < r.NPages; pg++ {
			if err := sys.Mem().PeekBytes(r.Base+mem.Addr(pg)*mem.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			for off, b := range buf {
				if b != 0 {
					t.Fatalf("heap page %d byte %d nonzero (%#x) after discard", pg, off, b)
				}
			}
		}
	}
}

// TestDiscardCyclesIndependentOfDirtiness: the virtual cost of a discard
// is a function of heap geometry, not of how many pages the run dirtied —
// the host-side dirty-bounded scrub must be invisible to virtual time.
func TestDiscardCyclesIndependentOfDirtiness(t *testing.T) {
	run := func(dirtyPages int) uint64 {
		sys := NewSystem(DefaultConfig())
		d, err := sys.CreateDomain(DomainConfig{HeapPages: 32})
		if err != nil {
			t.Fatal(err)
		}
		if dirtyPages > 0 {
			err = sys.Enter(d.UDI(), func(c *DomainCtx) error {
				p := c.MustAlloc(dirtyPages * mem.PageSize)
				c.MustStore(p, make([]byte, dirtyPages*mem.PageSize))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		before := sys.Clock().Cycles()
		if err := sys.DiscardDomain(d.UDI()); err != nil {
			t.Fatal(err)
		}
		return sys.Clock().Cycles() - before
	}
	clean := run(0)
	dirty := run(16)
	if clean != dirty {
		t.Errorf("discard cycles depend on dirtiness: clean=%d dirty=%d", clean, dirty)
	}
	if clean == 0 {
		t.Error("discard charged no cycles")
	}
}

// TestAdoptHeapInvalidatesStaleTranslations: heap adoption re-tags the
// domain's pages to the root key while the domain's old PKRU value has
// warm TLB entries for them. A new domain reusing that protection key
// must not be able to reach the adopted pages through a stale cached
// translation.
func TestAdoptHeapInvalidatesStaleTranslations(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	d, err := sys.CreateDomain(DomainConfig{HeapPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	oldKey := d.key
	var addr mem.Addr
	// Warm the TLB for (heap pages, domain PKRU).
	err = sys.Enter(d.UDI(), func(c *DomainCtx) error {
		addr = c.MustAlloc(256)
		c.MustStore(addr, make([]byte, 256))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	adopted, err := sys.AdoptHeap(d.UDI())
	if err != nil {
		t.Fatal(err)
	}
	if adopted.Key() != sys.rootKey {
		t.Fatalf("adopted heap key = %v, want root key %v", adopted.Key(), sys.rootKey)
	}
	// A fresh domain gets the freed key back — its PKRU equals the old
	// domain's, so a stale TLB entry would wrongly allow the access.
	d2, err := sys.CreateDomain(DomainConfig{HeapPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d2.key != oldKey {
		t.Skipf("key allocator did not reuse %v (got %v)", oldKey, d2.key)
	}
	err = sys.Enter(d2.UDI(), func(c *DomainCtx) error {
		return c.Store64(addr, 0x41)
	})
	v, ok := IsViolation(err)
	if !ok {
		t.Fatalf("write to adopted page = %v, want ViolationError", err)
	}
	f, ok := mem.IsFault(v.Cause)
	if !ok || f.Kind != mem.FaultPkey {
		t.Errorf("cause = %v, want FaultPkey on root-tagged page", v.Cause)
	}
}

// TestGrantRevokeReadRefreshesCachedPKRU: the per-domain cached register
// value must track read grants, including for a domain that is not
// currently active.
func TestGrantRevokeReadRefreshesCachedPKRU(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	owner, err := sys.CreateDomain(DomainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	viewer, err := sys.CreateDomain(DomainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var shared mem.Addr
	if err := sys.Enter(owner.UDI(), func(c *DomainCtx) error {
		shared = c.MustAlloc(64)
		c.MustStore64(shared, 0x5eed)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Without a grant the viewer faults.
	err = sys.Enter(viewer.UDI(), func(c *DomainCtx) error {
		_, lerr := c.Load64(shared)
		if lerr == nil {
			t.Error("read without grant succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Grant while the viewer is inactive: the cached PKRU must pick it up
	// on the next entry.
	if err := sys.GrantRead(viewer.UDI(), owner.UDI()); err != nil {
		t.Fatal(err)
	}
	if !viewer.pkru.CanRead(owner.key) || viewer.pkru.CanWrite(owner.key) {
		t.Fatalf("cached PKRU %v does not reflect read grant", viewer.pkru)
	}
	err = sys.Enter(viewer.UDI(), func(c *DomainCtx) error {
		v, lerr := c.Load64(shared)
		if lerr != nil || v != 0x5eed {
			t.Errorf("granted read = %#x, %v", v, lerr)
		}
		if serr := c.Store64(shared, 1); serr == nil {
			t.Error("write through read-only grant succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RevokeRead(viewer.UDI(), owner.UDI()); err != nil {
		t.Fatal(err)
	}
	if viewer.pkru.CanRead(owner.key) {
		t.Fatalf("cached PKRU %v still allows revoked key", viewer.pkru)
	}
}

// TestWorkerRecycleDirtyBounded: the pool-style recycle loop —
// enter/work/discard — keeps the machine's dirty-page count bounded by
// the working set, not by cumulative traffic.
func TestWorkerRecycleDirtyBounded(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	d, err := sys.CreateDomain(DomainConfig{HeapPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		err := sys.Enter(d.UDI(), func(c *DomainCtx) error {
			p := c.MustAlloc(1024)
			c.MustStore(p, make([]byte, 1024))
			c.MustFree(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.DiscardDomain(d.UDI()); err != nil {
			t.Fatal(err)
		}
	}
	// After the final discard only non-heap pages (the domain stack) may
	// be dirty.
	stackPages := 8 + 1 // DomainConfig default StackPages + guard
	if got := sys.Mem().DirtyPages(); got > stackPages {
		t.Errorf("DirtyPages = %d after recycle loop, want <= %d (stack only)", got, stackPages)
	}
}
