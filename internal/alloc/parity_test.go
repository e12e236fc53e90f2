package alloc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/pku"
	"repro/internal/vclock"
)

func newParityHeap(t *testing.T) (*Heap, *vclock.Clock) {
	t.Helper()
	clk := vclock.New(vclock.DefaultCostModel())
	m := mem.New(clk)
	h, err := New(m, pku.Key(1), Config{InitialPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	return h, clk
}

// store64Cost is the virtual cost of one 8-byte header/canary access.
func store64Cost(mdl vclock.CostModel) uint64 { return mdl.MemStore + 8*mdl.MemPerByte }
func load64Cost(mdl vclock.CostModel) uint64  { return mdl.MemLoad + 8*mdl.MemPerByte }

// TestAllocFreeCycleParity pins the virtual cost of the benign
// Alloc/Free paths to the seed implementation's formula: the in-band
// metadata redesign (header-derived classes, freed markers) must not
// change what the simulated machine charges.
//
// Seed accounting:
//
//	Alloc(n) = Store64(size) + Store64(canary) + StoreBytes(ClassSize(c)) + Store64(redzone)
//	Free(p)  = Load64(canary) + Load64(size or redzone) + Load64(redzone or size)
func TestAllocFreeCycleParity(t *testing.T) {
	h, clk := newParityHeap(t)
	mdl := clk.Model()

	for _, n := range []int{1, 16, 100, 1000} {
		c, ok := classFor(n)
		if !ok {
			t.Fatalf("classFor(%d) found no class", n)
		}
		wantAlloc := 3*store64Cost(mdl) + mdl.MemStore + uint64(ClassSize(c))*mdl.MemPerByte

		before := clk.Cycles()
		p, err := h.Alloc(n)
		if err != nil {
			t.Fatal(err)
		}
		if got := clk.Cycles() - before; got != wantAlloc {
			t.Errorf("Alloc(%d) charged %d cycles, want %d", n, got, wantAlloc)
		}

		wantFree := 3 * load64Cost(mdl)
		before = clk.Cycles()
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
		if got := clk.Cycles() - before; got != wantFree {
			t.Errorf("Free(%d bytes) charged %d cycles, want %d", n, got, wantFree)
		}
	}
}

// TestCheckIntegrityCycleParity: the sweep charges exactly the canary +
// redzone validation per live chunk; freed chunks (walked via kernel-side
// peeks) cost nothing — matching the seed's live-map sweep.
func TestCheckIntegrityCycleParity(t *testing.T) {
	h, clk := newParityHeap(t)
	mdl := clk.Model()

	var live []mem.Addr
	for i := 0; i < 6; i++ {
		p, err := h.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	// Free half: the freed chunks must not add charged traffic.
	for _, p := range live[:3] {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	before := clk.Cycles()
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	want := uint64(3) * 2 * load64Cost(mdl) // 3 live chunks x (canary + redzone)
	if got := clk.Cycles() - before; got != want {
		t.Errorf("CheckIntegrity charged %d cycles, want %d (2 loads per live chunk)", got, want)
	}
}

// TestDoubleFreeDetectedByMarker: the freed-marker canary (tcache-key
// style) catches double frees without a host-side map.
func TestDoubleFreeDetectedByMarker(t *testing.T) {
	h, _ := newParityHeap(t)
	p, err := h.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free = %v, want ErrBadFree", err)
	}
	// Alloc reuses the chunk and rewrites a live canary: freeing again is
	// legal.
	q, err := h.Alloc(48)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("free-list reuse: got %#x, want %#x", uint64(q), uint64(p))
	}
	if err := h.Free(q); err != nil {
		t.Errorf("free after reuse: %v", err)
	}
}

// TestFreedMarkerSmashDetectedBySweep: overwriting a freed chunk's header
// (a use-after-free write) is caught by CheckIntegrity — detection the
// live-map design could not provide.
func TestFreedMarkerSmashDetectedBySweep(t *testing.T) {
	h, _ := newParityHeap(t)
	p, err := h.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatalf("sweep over freed chunk: %v", err)
	}
	// Smash the freed chunk's header canary via a raw write.
	if err := h.m.Poke64(p-headerSize+8, 0x4141414141414141); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckIntegrity(); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("sweep after freed-header smash = %v, want ErrHeapCorruption", err)
	}
}

// TestSizeFieldSmashDetected: a corrupted size field is caught at Free
// (the redzone lands at the wrong offset, or the class is invalid).
func TestSizeFieldSmashDetected(t *testing.T) {
	h, _ := newParityHeap(t)
	p, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.m.Poke64(p-headerSize, 1<<40); err != nil { // absurd size
		t.Fatal(err)
	}
	if err := h.Free(p); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("free with smashed size = %v, want ErrHeapCorruption", err)
	}
}

// TestSweepDeterministicOrder: with two corrupted chunks, the sweep
// always reports the lower-addressed one — the former map-order sweep
// reported a random one.
func TestSweepDeterministicOrder(t *testing.T) {
	var first string
	for trial := 0; trial < 8; trial++ {
		h, _ := newParityHeap(t)
		a, err := h.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := h.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []mem.Addr{a, b} {
			if err := h.m.Poke64(p-headerSize+8, 0xbad); err != nil {
				t.Fatal(err)
			}
		}
		err = h.CheckIntegrity()
		if !errors.Is(err, ErrHeapCorruption) {
			t.Fatalf("sweep = %v, want ErrHeapCorruption", err)
		}
		if trial == 0 {
			first = err.Error()
			if !strings.Contains(first, "header canary") {
				t.Fatalf("unexpected corruption report: %v", err)
			}
		} else if err.Error() != first {
			t.Fatalf("sweep order nondeterministic: %q vs %q", err.Error(), first)
		}
	}
}

// TestStaleFreeAfterReset: pointers from before a Reset are rejected (the
// bump offset range check replaces the live-map membership test).
func TestStaleFreeAfterReset(t *testing.T) {
	h, _ := newParityHeap(t)
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("stale free after Reset = %v, want ErrBadFree", err)
	}
	if err := h.ResetNoZero(); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); !errors.Is(err, ErrBadFree) {
		t.Errorf("stale free after ResetNoZero = %v, want ErrBadFree", err)
	}
}

// TestResetLeavesHeapByteIdenticalToFullScrub: the allocator-level
// differential test — after heavy churn and a Reset, every byte of every
// heap region reads zero, exactly as the seed's unconditional scrub left
// it.
func TestResetLeavesHeapByteIdenticalToFullScrub(t *testing.T) {
	h, _ := newParityHeap(t)
	var ps []mem.Addr
	for i := 0; i < 200; i++ {
		p, err := h.Alloc(16 + (i%8)*97)
		if err != nil {
			t.Fatal(err)
		}
		fill := make([]byte, 16+(i%8)*97)
		for j := range fill {
			fill[j] = byte(i + j)
		}
		if err := h.m.StoreBytes(h.pkru, p, fill); err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i, p := range ps {
		if i%3 == 0 {
			if err := h.Free(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, r := range h.Regions() {
		for pg := 0; pg < r.NPages; pg++ {
			buf := make([]byte, mem.PageSize)
			if err := h.m.PeekBytes(r.Base+mem.Addr(pg)*mem.PageSize, buf); err != nil {
				t.Fatal(err)
			}
			for off, b := range buf {
				if b != 0 {
					t.Fatalf("byte %#x of region %#x nonzero (%#x) after Reset",
						pg*mem.PageSize+off, uint64(r.Base), b)
				}
			}
		}
	}
	// The pristine heap bump-allocates from the start of its newest
	// region again (bump offsets were reset).
	p, err := h.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	last := h.Regions()[len(h.Regions())-1]
	if p != last.Base+headerSize {
		t.Errorf("post-Reset alloc at %#x, want region start %#x", uint64(p), uint64(last.Base+headerSize))
	}
}

// TestInteriorPointerFreeIsBadFree: freeing a pointer into the middle of
// an allocation is an invalid free (seed semantics, consistent with
// UsableSize) — not a heap-corruption violation — and must not disturb
// the real allocation.
func TestInteriorPointerFreeIsBadFree(t *testing.T) {
	h, _ := newParityHeap(t)
	p, err := h.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []mem.Addr{p + 16, p + 100, p - 8} {
		if err := h.Free(bad); !errors.Is(err, ErrBadFree) {
			t.Errorf("Free(%#x) = %v, want ErrBadFree", uint64(bad), err)
		}
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Errorf("sweep after interior-pointer frees: %v", err)
	}
	if err := h.Free(p); err != nil {
		t.Errorf("real free after interior-pointer frees: %v", err)
	}
}

// TestFreedSizeSmashDetectedBySweep: overwriting a freed chunk's size
// field with a different valid size must not desync the sweep into
// skipping later chunks — the freed chunk's redzone no longer matches
// the claimed size, and the sweep reports corruption.
func TestFreedSizeSmashDetectedBySweep(t *testing.T) {
	h, _ := newParityHeap(t)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	// UAF write: grow the freed chunk's size to a larger (valid) class,
	// which would make a naive walk jump over chunk b...
	if err := h.m.Poke64(a-headerSize, 4000); err != nil {
		t.Fatal(err)
	}
	// ...and smash b's canary, which a desynced walk would never visit.
	if err := h.m.Poke64(b-headerSize+8, 0xbad); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckIntegrity(); !errors.Is(err, ErrHeapCorruption) {
		t.Errorf("sweep after freed-size smash = %v, want ErrHeapCorruption", err)
	}
}
