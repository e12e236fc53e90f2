package alloc

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pku"
	"repro/internal/vclock"
)

func newHeap(t *testing.T) (*Heap, *mem.Memory) {
	t.Helper()
	m := mem.New(vclock.New(vclock.DefaultCostModel()))
	h, err := New(m, pku.Key(1), Config{InitialPages: 4, MaxPages: 4096})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h, m
}

func TestAllocReturnsZeroedWritablePayload(t *testing.T) {
	h, m := newHeap(t)
	p, err := h.Alloc(100)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	buf := make([]byte, 100)
	if err := m.LoadBytes(pkru, p, buf); err != nil {
		t.Fatalf("read payload: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 100)) {
		t.Error("payload not zeroed")
	}
	if err := m.StoreBytes(pkru, p, []byte("hello")); err != nil {
		t.Errorf("write payload: %v", err)
	}
}

func TestAllocFreeCycle(t *testing.T) {
	h, _ := newHeap(t)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := h.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st := h.Stats()
	if st.LiveChunks != 0 || st.LiveBytes != 0 {
		t.Errorf("stats after free: %+v", st)
	}
	// Freed chunk is reused for the same class.
	p2, err := h.Alloc(64)
	if err != nil {
		t.Fatalf("Alloc 2: %v", err)
	}
	if p2 != p {
		t.Errorf("free chunk not reused: %#x vs %#x", uint64(p2), uint64(p))
	}
}

func TestDoubleFree(t *testing.T) {
	h, _ := newHeap(t)
	p, _ := h.Alloc(16)
	if err := h.Free(p); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free = %v, want ErrBadFree", err)
	}
}

func TestFreeOfWildPointer(t *testing.T) {
	h, _ := newHeap(t)
	if err := h.Free(0xdead000); !errors.Is(err, ErrBadFree) {
		t.Errorf("wild free = %v, want ErrBadFree", err)
	}
}

func TestOverflowDetectedAtFree(t *testing.T) {
	h, m := newHeap(t)
	p, _ := h.Alloc(32)
	// Simulate a linear heap overflow: write past the 32-byte class
	// payload into the redzone.
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	evil := make([]byte, 48) // 32-byte class + 16 bytes into the redzone
	for i := range evil {
		evil[i] = 0x41
	}
	if err := m.StoreBytes(pkru, p, evil); err != nil {
		t.Fatalf("overflow write: %v", err)
	}
	if err := h.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("Free after overflow = %v, want ErrHeapCorruption", err)
	}
}

func TestOverflowDetectedByIntegritySweep(t *testing.T) {
	h, m := newHeap(t)
	p1, _ := h.Alloc(16)
	_, _ = h.Alloc(16)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("clean heap flagged: %v", err)
	}
	// Overflow p1 far enough to smash the next chunk's header canary.
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	evil := make([]byte, 64)
	if err := m.StoreBytes(pkru, p1, evil); err != nil {
		t.Fatalf("overflow: %v", err)
	}
	if err := h.CheckIntegrity(); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("CheckIntegrity = %v, want ErrHeapCorruption", err)
	}
}

func TestHeaderCanarySmashDetected(t *testing.T) {
	h, m := newHeap(t)
	p, _ := h.Alloc(16)
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	// Underflow: overwrite the chunk's own header canary.
	if err := m.Store64(pkru, p-8, 0x4141414141414141); err != nil {
		t.Fatalf("underflow write: %v", err)
	}
	if err := h.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("Free after underflow = %v, want ErrHeapCorruption", err)
	}
}

func TestHeapGrows(t *testing.T) {
	h, _ := newHeap(t)
	// 4 initial pages = 16 KiB; allocate far more.
	var ps []mem.Addr
	for i := 0; i < 100; i++ {
		p, err := h.Alloc(1024)
		if err != nil {
			t.Fatalf("Alloc #%d: %v", i, err)
		}
		ps = append(ps, p)
	}
	if h.Stats().HeapPages <= 4 {
		t.Error("heap did not grow")
	}
	for _, p := range ps {
		if err := h.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
}

func TestMaxPagesEnforced(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, 1, Config{InitialPages: 1, MaxPages: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = h.Alloc(2048); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", lastErr)
	}
}

func TestTooLargeAndZeroAlloc(t *testing.T) {
	h, _ := newHeap(t)
	if _, err := h.Alloc(0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Alloc(0) = %v, want ErrTooLarge", err)
	}
	if _, err := h.Alloc(-5); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Alloc(-5) = %v, want ErrTooLarge", err)
	}
	if _, err := h.Alloc(1 << 30); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Alloc(1GiB) = %v, want ErrTooLarge", err)
	}
}

func TestResetDiscardsEverything(t *testing.T) {
	h, m := newHeap(t)
	p, _ := h.Alloc(128)
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	_ = m.StoreBytes(pkru, p, []byte("sensitive"))
	if err := h.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	st := h.Stats()
	if st.LiveChunks != 0 || st.LiveBytes != 0 {
		t.Errorf("stats after reset: %+v", st)
	}
	// Old data is gone (pages zeroed).
	buf := make([]byte, 9)
	if err := m.LoadBytes(pkru, p, buf); err != nil {
		t.Fatalf("read after reset: %v", err)
	}
	if !bytes.Equal(buf, make([]byte, 9)) {
		t.Errorf("data survived reset: %q", buf)
	}
	// Heap is reusable after reset.
	if _, err := h.Alloc(64); err != nil {
		t.Errorf("Alloc after reset: %v", err)
	}
}

func TestReleaseUnmapsPages(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, 1, Config{InitialPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := m.MappedPages()
	if err := h.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if got := m.MappedPages(); got != before-4 {
		t.Errorf("MappedPages = %d, want %d", got, before-4)
	}
}

func TestHeapPagesCarryDomainKey(t *testing.T) {
	h, m := newHeap(t)
	p, _ := h.Alloc(16)
	// A PKRU with the domain key reads the payload; one without it
	// cannot touch it.
	if err := m.LoadBytes(pku.OnlyKeys(pku.DefaultKey, h.Key()), p, make([]byte, 1)); err != nil {
		t.Errorf("domain-key read = %v, want nil", err)
	}
	lerr := m.LoadBytes(pku.OnlyKeys(pku.DefaultKey), p, make([]byte, 1))
	if f, ok := mem.IsFault(lerr); !ok || f.Kind != mem.FaultPkey {
		t.Errorf("foreign read = %v, want FaultPkey", lerr)
	}
}

func TestUsableSize(t *testing.T) {
	h, _ := newHeap(t)
	p, _ := h.Alloc(100)
	n, err := h.UsableSize(p)
	if err != nil || n != 128 {
		t.Errorf("UsableSize = %d, %v; want 128", n, err)
	}
	if _, err := h.UsableSize(0x123); !errors.Is(err, ErrBadFree) {
		t.Errorf("UsableSize(wild) = %v, want ErrBadFree", err)
	}
}

func TestClassForBoundaries(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {16, 0}, {17, 1}, {32, 1}, {33, 2}, {4096, 8},
	}
	for _, c := range cases {
		got, ok := classFor(c.n)
		if !ok || got != c.class {
			t.Errorf("classFor(%d) = %d, %v; want %d", c.n, got, ok, c.class)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	h, _ := newHeap(t)
	p1, _ := h.Alloc(100)
	p2, _ := h.Alloc(200)
	st := h.Stats()
	if st.LiveChunks != 2 || st.LiveBytes != 300 || st.TotalAllocs != 2 {
		t.Errorf("stats = %+v", st)
	}
	_ = h.Free(p1)
	_ = h.Free(p2)
	st = h.Stats()
	if st.PeakBytes != 300 || st.TotalFrees != 2 {
		t.Errorf("stats after frees = %+v", st)
	}
}

// Property: any sequence of small allocations yields non-overlapping,
// canary-clean chunks, and freeing them all returns the heap to zero
// live bytes.
func TestAllocNonOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := mem.New(nil)
		h, err := New(m, 2, Config{InitialPages: 8, MaxPages: 1 << 16})
		if err != nil {
			return false
		}
		type span struct{ lo, hi uint64 }
		var spans []span
		var ptrs []mem.Addr
		for _, s := range sizes {
			n := int(s%2048) + 1
			p, err := h.Alloc(n)
			if err != nil {
				return false
			}
			lo, hi := uint64(p), uint64(p)+uint64(n)
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false // overlap
				}
			}
			spans = append(spans, span{lo, hi})
			ptrs = append(ptrs, p)
		}
		if h.CheckIntegrity() != nil {
			return false
		}
		for _, p := range ptrs {
			if h.Free(p) != nil {
				return false
			}
		}
		return h.Stats().LiveBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: writes that stay within the requested size never trip the
// canaries (no false positives).
func TestNoFalsePositiveProperty(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, 3, Config{InitialPages: 8, MaxPages: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		p, err := h.Alloc(len(data))
		if err != nil {
			return false
		}
		if m.StoreBytes(pkru, p, data) != nil {
			return false
		}
		return h.Free(p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRekey(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, pku.Key(2), Config{InitialPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := h.Alloc(64)
	// Re-tag the pages then rekey the allocator's view.
	for _, r := range h.Regions() {
		if err := m.TagKey(r.Base, r.NPages, pku.Key(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Rekey(pku.Key(5)); err != nil {
		t.Fatal(err)
	}
	if h.Key() != pku.Key(5) {
		t.Errorf("Key = %v", h.Key())
	}
	// Metadata operations work under the new key.
	if err := h.Free(p); err != nil {
		t.Errorf("Free after rekey: %v", err)
	}
	if _, err := h.Alloc(32); err != nil {
		t.Errorf("Alloc after rekey: %v", err)
	}
	if err := h.Rekey(pku.Key(200)); err == nil {
		t.Error("invalid key accepted")
	}
}

func TestRegionsReflectGrowth(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, pku.Key(1), Config{InitialPages: 1, MaxPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Regions(); len(got) != 1 || got[0].NPages != 1 {
		t.Fatalf("initial regions: %+v", got)
	}
	// Force growth past the first region.
	for i := 0; i < 8; i++ {
		if _, err := h.Alloc(2048); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Regions(); len(got) < 2 {
		t.Errorf("regions after growth: %+v", got)
	}
}

func TestResetNoZeroKeepsBytesButResetsState(t *testing.T) {
	m := mem.New(nil)
	h, err := New(m, pku.Key(1), Config{InitialPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	pkru := pku.OnlyKeys(pku.DefaultKey, h.Key())
	p, _ := h.Alloc(16)
	_ = m.StoreBytes(pkru, p, []byte("stale!"))
	if err := h.ResetNoZero(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.LiveChunks != 0 || st.LiveBytes != 0 {
		t.Errorf("state after fast reset: %+v", st)
	}
	// Stale bytes remain in the page (the confidentiality trade-off)...
	buf := make([]byte, 6)
	_ = m.LoadBytes(pkru, p, buf)
	if string(buf) == "\x00\x00\x00\x00\x00\x00" {
		t.Skip("allocator header landed over the probe; stale-bytes check inconclusive")
	}
	// ...but fresh allocations still hand out zeroed payloads.
	p2, _ := h.Alloc(16)
	buf2 := make([]byte, 16)
	_ = m.LoadBytes(pkru, p2, buf2)
	if !bytes.Equal(buf2, make([]byte, 16)) {
		t.Error("fresh allocation not zeroed after fast reset")
	}
}

// TestFreedChunkSmashDetectedAtReuse pins the reuse-time validation: a
// freed chunk whose header canary or redzone was smashed after the free
// (use-after-free / tcache-poisoning shapes) must fail the next Alloc of
// its class with ErrHeapCorruption instead of being silently recycled —
// recycling would rewrite the header and erase the evidence before the
// next integrity sweep (the batched execution path shares one sweep
// across many calls).
func TestFreedChunkSmashDetectedAtReuse(t *testing.T) {
	t.Run("header-canary", func(t *testing.T) {
		h, m := newHeap(t)
		p, err := h.Alloc(32)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := h.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
		// Smash the freed-marker canary word (payload-8).
		if err := m.Poke64(p-8, 0x4141414141414141); err != nil {
			t.Fatalf("Poke64: %v", err)
		}
		if _, err := h.Alloc(32); !errors.Is(err, ErrHeapCorruption) {
			t.Fatalf("Alloc after freed-header smash = %v, want ErrHeapCorruption", err)
		}
	})
	t.Run("redzone", func(t *testing.T) {
		h, m := newHeap(t)
		p, err := h.Alloc(64)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := h.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
		// A dangling write runs over the freed payload into the redzone.
		if err := m.Poke64(p+64, 0x5555555555555555); err != nil {
			t.Fatalf("Poke64: %v", err)
		}
		if _, err := h.Alloc(64); !errors.Is(err, ErrHeapCorruption) {
			t.Fatalf("Alloc after freed-redzone smash = %v, want ErrHeapCorruption", err)
		}
	})
	t.Run("clean-reuse-still-works", func(t *testing.T) {
		h, _ := newHeap(t)
		p, err := h.Alloc(48)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := h.Free(p); err != nil {
			t.Fatalf("Free: %v", err)
		}
		q, err := h.Alloc(48)
		if err != nil {
			t.Fatalf("Alloc reuse: %v", err)
		}
		if q != p {
			t.Errorf("clean reuse returned %#x, want recycled chunk %#x", uint64(q), uint64(p))
		}
	})
}
