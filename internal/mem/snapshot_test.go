package mem

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pku"
)

func TestModifiedPagesTracksStores(t *testing.T) {
	m := newMem(t)
	m.TrackModified(true)
	base, err := m.Map(4, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	pkru := pku.PKRUAllowAll
	if err := store8(m, pkru, base+PageSize, 0xaa); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	if err := store8(m, pkru, base+3*PageSize+17, 0xbb); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	pns, err := m.ModifiedPages(base, 4)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	want := []uint64{uint64(base+PageSize) >> PageShift, uint64(base+3*PageSize) >> PageShift}
	if len(pns) != 2 || pns[0] != want[0] || pns[1] != want[1] {
		t.Fatalf("ModifiedPages = %#x, want %#x", pns, want)
	}

	// The baseline reset clears the set; a new store repopulates it.
	if err := m.ClearModified(base, 4); err != nil {
		t.Fatalf("ClearModified: %v", err)
	}
	pns, err = m.ModifiedPages(base, 4)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	if len(pns) != 0 {
		t.Fatalf("after clear, ModifiedPages = %#x", pns)
	}
	if err := store8(m, pkru, base, 1); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	pns, err = m.ModifiedPages(base, 4)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	if len(pns) != 1 || pns[0] != uint64(base)>>PageShift {
		t.Fatalf("after re-store, ModifiedPages = %#x", pns)
	}
}

func TestModifiedSurvivesZeroScrub(t *testing.T) {
	// Zero clears the dirty bitmap (the page holds no data) but a scrub
	// IS a modification for snapshot purposes: a restored image must
	// reproduce the zeroes, or stale bytes from an older snapshot leak.
	m := newMem(t)
	m.TrackModified(true)
	base, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := store8(m, pku.PKRUAllowAll, base, 0xcc); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	if err := m.ClearModified(base, 1); err != nil {
		t.Fatalf("ClearModified: %v", err)
	}
	if err := m.Zero(base, 1); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	pns, err := m.ModifiedPages(base, 1)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	if len(pns) != 1 {
		t.Fatalf("scrubbed page not in modified set: %#x", pns)
	}
	nz, err := m.NonZeroPages(base, 1)
	if err != nil {
		t.Fatalf("NonZeroPages: %v", err)
	}
	if len(nz) != 0 {
		t.Fatalf("zeroed page still in nonzero set: %#x", nz)
	}
}

func TestTrackingOffCostsNothing(t *testing.T) {
	m := newMem(t)
	base, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := store8(m, pku.PKRUAllowAll, base, 1); err != nil {
		t.Fatalf("Store8: %v", err)
	}
	pns, err := m.ModifiedPages(base, 1)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	if len(pns) != 0 {
		t.Fatalf("modified set populated with tracking off: %#x", pns)
	}
	if m.trackMod {
		t.Fatal("modified-page tracking on by default")
	}
}

func TestMapAtRestoresOriginalAddresses(t *testing.T) {
	m := newMem(t)
	a, err := m.Map(2, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	m.Unmap(a, 2)

	// Remap at the original address, as a restore does.
	if err := m.MapAt(a, 2, ProtRW, pku.DefaultKey); err != nil {
		t.Fatalf("MapAt: %v", err)
	}
	if pageAt(m, a) == nil || pageAt(m, a+PageSize) == nil {
		t.Fatal("MapAt pages not mapped")
	}
	// Double-map rejected.
	if err := m.MapAt(a, 1, ProtRW, pku.DefaultKey); !errors.Is(err, ErrDoubleMap) {
		t.Fatalf("double MapAt = %v, want ErrDoubleMap", err)
	}
	// Unaligned rejected.
	if err := m.MapAt(a+1, 1, ProtRW, pku.DefaultKey); !errors.Is(err, ErrBadRange) {
		t.Fatalf("unaligned MapAt = %v, want ErrBadRange", err)
	}
	// Fresh Map never collides with the restored range.
	b, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if b < a+2*PageSize {
		t.Fatalf("Map handed out overlapping range: a=%#x b=%#x", uint64(a), uint64(b))
	}
}

func TestPokePeekBytesRoundTrip(t *testing.T) {
	m := newMem(t)
	m.TrackModified(true)
	base, err := m.Map(2, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	src := make([]byte, PageSize+100)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.PokeBytes(base+10, src); err != nil {
		t.Fatalf("PokeBytes: %v", err)
	}
	got := make([]byte, len(src))
	if err := m.PeekBytes(base+10, got); err != nil {
		t.Fatalf("PeekBytes: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("round-trip mismatch")
	}
	// Kernel-side writes still mark pages modified (restore relies on
	// the subsequent capture seeing them).
	pns, err := m.ModifiedPages(base, 2)
	if err != nil {
		t.Fatalf("ModifiedPages: %v", err)
	}
	if len(pns) != 2 {
		t.Fatalf("ModifiedPages = %#x, want both pages", pns)
	}
	// Unmapped target faults, never partially writes silently.
	if err := m.PokeBytes(base+2*PageSize-1, []byte{1, 2}); err == nil {
		t.Fatal("PokeBytes across unmapped boundary succeeded")
	}
}
