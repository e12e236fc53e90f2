package mem

import (
	"bytes"
	"testing"

	"repro/internal/pku"
	"repro/internal/vclock"
)

// TestTLBHitsOnRepeatAccess: repeated accesses to the same page under the
// same PKRU are served by the software TLB.
func TestTLBHitsOnRepeatAccess(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	for i := 0; i < 10; i++ {
		if err := store8(m, pku.PKRUAllowAll, base+Addr(i), byte(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.TLBHits < 9 {
		t.Errorf("TLBHits = %d, want >= 9 after 10 same-page stores", st.TLBHits)
	}
	if st.TLBMisses < 1 {
		t.Errorf("TLBMisses = %d, want >= 1 (first access walks)", st.TLBMisses)
	}
}

// TestTLBInvalidationOnUnmap: a cached translation must not survive the
// page being unmapped.
func TestTLBInvalidationOnUnmap(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if _, err := load8(m, pku.PKRUAllowAll, base); err != nil {
		t.Fatal(err)
	}
	if err := m.Unmap(base, 1); err != nil {
		t.Fatal(err)
	}
	_, err := load8(m, pku.PKRUAllowAll, base)
	if f, ok := IsFault(err); !ok || f.Kind != FaultUnmapped {
		t.Errorf("post-unmap load = %v, want FaultUnmapped (stale TLB entry?)", err)
	}
}

// TestTLBInvalidationOnProtect: a cached write permission must not
// survive the page being made read-only.
func TestTLBInvalidationOnProtect(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if err := store8(m, pku.PKRUAllowAll, base, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(base, 1, ProtRead); err != nil {
		t.Fatal(err)
	}
	err := store8(m, pku.PKRUAllowAll, base, 2)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProt {
		t.Errorf("post-Protect store = %v, want FaultProt (stale TLB entry?)", err)
	}
}

// TestTLBInvalidationOnTagKey: the PKU outcome is cached per (page,
// PKRU), so re-tagging a page to a key the same PKRU cannot access must
// invalidate the cached allow decision. This is the exact hazard of heap
// adoption: the adopting TagKey moves pages to the root key while the
// old PKRU value is still in circulation.
func TestTLBInvalidationOnTagKey(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.Key(2))
	pkru := pku.OnlyKeys(pku.DefaultKey, pku.Key(2))
	if err := store8(m, pkru, base, 1); err != nil {
		t.Fatal(err)
	}
	// Re-tag to key 5, which pkru has no rights to.
	if err := m.TagKey(base, 1, pku.Key(5)); err != nil {
		t.Fatal(err)
	}
	err := store8(m, pkru, base, 2)
	if f, ok := IsFault(err); !ok || f.Kind != FaultPkey {
		t.Errorf("post-TagKey store = %v, want FaultPkey (stale TLB entry?)", err)
	}
	if _, err := load8(m, pkru, base); err == nil {
		t.Error("post-TagKey load succeeded, want FaultPkey")
	}
}

// TestTLBKeyedByPKRU: a translation cached under one PKRU value must not
// leak rights to a different PKRU (no flush happens on a PKRU change —
// the register value is part of the entry tag).
func TestTLBKeyedByPKRU(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.Key(3))
	allowed := pku.OnlyKeys(pku.DefaultKey, pku.Key(3))
	if err := store8(m, allowed, base, 1); err != nil {
		t.Fatal(err)
	}
	denied := pku.OnlyKeys(pku.DefaultKey) // no rights to key 3
	if _, err := load8(m, denied, base); err == nil {
		t.Error("denied PKRU read succeeded via cached translation")
	}
	wd := allowed.WithWriteDisabled(pku.Key(3))
	if _, err := load8(m, wd, base); err != nil {
		t.Errorf("WD read should succeed: %v", err)
	}
	if err := store8(m, wd, base, 2); err == nil {
		t.Error("WD write succeeded via cached translation")
	}
}

// TestDirtyTracking: stores mark pages dirty, Zero scrubs and re-cleans
// exactly the dirtied pages.
func TestDirtyTracking(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(8, ProtRW, pku.DefaultKey)
	if got := m.DirtyPages(); got != 0 {
		t.Fatalf("fresh mapping DirtyPages = %d, want 0", got)
	}
	// Dirty pages 1 and 5.
	if err := store8(m, pku.PKRUAllowAll, base+1*PageSize+17, 0xaa); err != nil {
		t.Fatal(err)
	}
	if err := store8(m, pku.PKRUAllowAll, base+5*PageSize, 0xbb); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); got != 2 {
		t.Errorf("DirtyPages = %d, want 2", got)
	}
	// A multi-page store dirties every page it touches.
	big := make([]byte, 2*PageSize)
	if err := m.StoreBytes(pku.PKRUAllowAll, base+2*PageSize, big); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); got != 4 {
		t.Errorf("DirtyPages = %d, want 4 after bulk store", got)
	}
	if err := m.Zero(base, 8); err != nil {
		t.Fatal(err)
	}
	if got := m.DirtyPages(); got != 0 {
		t.Errorf("DirtyPages = %d after Zero, want 0", got)
	}
}

// TestZeroDirtyBoundedIsByteIdenticalToFullScrub: the differential test —
// dirty-tracked Zero must leave memory in exactly the state a full scrub
// would: every byte zero, regardless of write pattern.
func TestZeroDirtyBoundedIsByteIdenticalToFullScrub(t *testing.T) {
	m := newMem(t)
	const pages = 67 // not a multiple of the bitmap word size
	base, _ := m.Map(pages, ProtRW, pku.DefaultKey)
	// Write a scattered pattern: whole pages, partial pages, cross-page.
	writes := []struct {
		off Addr
		n   int
	}{
		{0, PageSize},                   // page 0 fully
		{3*PageSize + 100, 50},          // page 3 partially
		{9*PageSize - 8, 16},            // pages 8+9 cross-boundary
		{33 * PageSize, 2 * PageSize},   // pages 33,34
		{66*PageSize + PageSize - 1, 1}, // last byte of last page
	}
	for _, w := range writes {
		buf := bytes.Repeat([]byte{0x5a}, w.n)
		if err := m.StoreBytes(pku.PKRUAllowAll, base+w.off, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Zero a second time after re-dirtying to exercise the re-clean path.
	if err := m.Zero(base, pages); err != nil {
		t.Fatal(err)
	}
	if err := store8(m, pku.PKRUAllowAll, base+40*PageSize, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Zero(base, pages); err != nil {
		t.Fatal(err)
	}
	// Differential check: every byte of the whole range must read zero.
	buf := make([]byte, PageSize)
	zero := make([]byte, PageSize)
	for p := 0; p < pages; p++ {
		if err := m.LoadBytes(pku.PKRUAllowAll, base+Addr(p)*PageSize, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, zero) {
			t.Fatalf("page %d not fully zeroed after dirty-bounded Zero", p)
		}
	}
}

// TestZeroChargesFullRange: the host-side dirty-bounded scrub must not
// change virtual accounting — Zero charges PageZero per page over the
// whole range whether or not pages were dirty.
func TestZeroChargesFullRange(t *testing.T) {
	clk := vclock.New(vclock.DefaultCostModel())
	m := New(clk)
	base, _ := m.Map(16, ProtRW, pku.DefaultKey)
	// First zero: nothing dirty at all.
	before := clk.Cycles()
	if err := m.Zero(base, 16); err != nil {
		t.Fatal(err)
	}
	cleanCost := clk.Cycles() - before
	if want := clk.Model().PageZero * 16; cleanCost != want {
		t.Errorf("Zero(clean range) charged %d cycles, want %d", cleanCost, want)
	}
	// Second zero: one dirty page — identical charge.
	_ = store8(m, pku.PKRUAllowAll, base, 1)
	before = clk.Cycles()
	if err := m.Zero(base, 16); err != nil {
		t.Fatal(err)
	}
	if dirtyCost := clk.Cycles() - before; dirtyCost != cleanCost {
		t.Errorf("Zero charge depends on dirtiness: clean=%d dirty=%d", cleanCost, dirtyCost)
	}
}

// TestChargeBeforeFault: the unified charge ordering — every access
// charges its cycle cost whether or not it faults, for a one-byte access
// exactly as for a ten-byte one.
func TestChargeBeforeFault(t *testing.T) {
	mdl := vclock.DefaultCostModel()
	cases := []struct {
		name string
		op   func(m *Memory) error
		want uint64
	}{
		{"Load8", func(m *Memory) error { _, err := load8(m, pku.PKRUAllowAll, 0xdead0000); return err }, mdl.MemLoad + mdl.MemPerByte},
		{"Store8", func(m *Memory) error { return store8(m, pku.PKRUAllowAll, 0xdead0000, 1) }, mdl.MemStore + mdl.MemPerByte},
		{"LoadBytes", func(m *Memory) error {
			return m.LoadBytes(pku.PKRUAllowAll, 0xdead0000, make([]byte, 10))
		}, mdl.MemLoad + 10*mdl.MemPerByte},
		{"StoreBytes", func(m *Memory) error {
			return m.StoreBytes(pku.PKRUAllowAll, 0xdead0000, make([]byte, 10))
		}, mdl.MemStore + 10*mdl.MemPerByte},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := vclock.New(mdl)
			m := New(clk)
			before := clk.Cycles()
			err := tc.op(m)
			if f, ok := IsFault(err); !ok || f.Kind != FaultUnmapped {
				t.Fatalf("err = %v, want FaultUnmapped", err)
			}
			if got := clk.Cycles() - before; got != tc.want {
				t.Errorf("faulting %s charged %d cycles, want %d (charge-before-fault)", tc.name, got, tc.want)
			}
		})
	}
}

// TestProtectTagKeyChargePerPage: pkey_mprotect over n pages charges n
// single-page operations, not a flat cost.
func TestProtectTagKeyChargePerPage(t *testing.T) {
	clk := vclock.New(vclock.DefaultCostModel())
	m := New(clk)
	base, _ := m.Map(5, ProtRW, pku.DefaultKey)
	mdl := clk.Model()

	before := clk.Cycles()
	if err := m.Protect(base, 5, ProtRead); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Cycles()-before, mdl.PkeyMprotect*5; got != want {
		t.Errorf("Protect(5 pages) charged %d, want %d", got, want)
	}

	before = clk.Cycles()
	if err := m.TagKey(base, 3, pku.Key(4)); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Cycles()-before, mdl.PkeyMprotect*3; got != want {
		t.Errorf("TagKey(3 pages) charged %d, want %d", got, want)
	}
}

// TestPeekPokeUnchargedAndDirty: kernel-side metadata accesses charge no
// cycles; Poke64 still marks the page dirty so Zero scrubs it.
func TestPeekPokeUnchargedAndDirty(t *testing.T) {
	clk := vclock.New(vclock.DefaultCostModel())
	m := New(clk)
	base, _ := m.Map(1, ProtNone, pku.Key(9)) // no prot, foreign key: Peek/Poke bypass both
	before := clk.Cycles()
	if err := m.Poke64(base+8, 0x1234); err != nil {
		t.Fatal(err)
	}
	v, err := m.Peek64(base + 8)
	if err != nil || v != 0x1234 {
		t.Fatalf("Peek64 = %#x, %v", v, err)
	}
	if clk.Cycles() != before {
		t.Errorf("Peek/Poke charged %d cycles, want 0", clk.Cycles()-before)
	}
	if m.DirtyPages() != 1 {
		t.Errorf("DirtyPages = %d after Poke64, want 1", m.DirtyPages())
	}
	if err := m.Zero(base, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Peek64(base + 8); v != 0 {
		t.Errorf("Poked value survived Zero: %#x", v)
	}
	if _, err := m.Peek64(0xdead0000); err == nil {
		t.Error("Peek64 of unmapped address should fail")
	}
}

// TestRadixSparseAddresses: the radix table handles page numbers far
// apart (distinct leaves) and leaf reclamation on unmap.
func TestRadixSparseAddresses(t *testing.T) {
	m := newMem(t)
	var bases []Addr
	// Map many small regions to spread across leaves (the bump pointer
	// only moves forward; force it across a leaf boundary).
	total := 0
	for total < 3*leafSize {
		b, err := m.Map(100, ProtRW, pku.DefaultKey)
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
		total += 100
	}
	for i, b := range bases {
		if err := store8(m, pku.PKRUAllowAll, b+Addr(i%100)*PageSize, byte(i)); err != nil {
			t.Fatalf("region %d: %v", i, err)
		}
	}
	for i, b := range bases {
		v, err := load8(m, pku.PKRUAllowAll, b+Addr(i%100)*PageSize)
		if err != nil || v != byte(i) {
			t.Fatalf("region %d readback = %d, %v", i, v, err)
		}
	}
	mapped := m.MappedPages()
	for _, b := range bases {
		if err := m.Unmap(b, 100); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.MappedPages(); got != mapped-len(bases)*100 {
		t.Errorf("MappedPages = %d after unmaps, want %d", got, mapped-len(bases)*100)
	}
	if m.DirtyPages() != 0 {
		t.Errorf("DirtyPages = %d after unmapping everything, want 0", m.DirtyPages())
	}
	// Fresh mappings after reclamation still work.
	b, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := store8(m, pku.PKRUAllowAll, b, 1); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsNotCachedByTLB: a faulting access must not poison the TLB for
// a later access that should succeed, and fault stats count every fault.
func TestFaultsNotCachedByTLB(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRead, pku.DefaultKey)
	before := m.Stats().Faults
	for i := 0; i < 3; i++ {
		if err := store8(m, pku.PKRUAllowAll, base, 1); err == nil {
			t.Fatal("write to read-only page succeeded")
		}
	}
	if got := m.Stats().Faults - before; got != 3 {
		t.Errorf("Faults = %d, want 3 (faults must not be TLB-cached)", got)
	}
	// Reads still succeed after the faulting writes.
	if _, err := load8(m, pku.PKRUAllowAll, base); err != nil {
		t.Errorf("read after faulting writes: %v", err)
	}
}

// TestUnmapChargeUnchanged guards the seed's flat-per-page Unmap/Map
// charges alongside the new per-page Protect/TagKey accounting.
func TestMapUnmapChargePerPage(t *testing.T) {
	clk := vclock.New(vclock.DefaultCostModel())
	m := New(clk)
	mdl := clk.Model()
	before := clk.Cycles()
	base, err := m.Map(7, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Cycles()-before, mdl.PageMap*7; got != want {
		t.Errorf("Map(7) charged %d, want %d", got, want)
	}
	before = clk.Cycles()
	if err := m.Unmap(base, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := clk.Cycles()-before, mdl.PageUnmap*7; got != want {
		t.Errorf("Unmap(7) charged %d, want %d", got, want)
	}
}
