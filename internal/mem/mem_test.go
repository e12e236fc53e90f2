package mem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/pku"
	"repro/internal/vclock"
)

func newMem(t *testing.T) *Memory {
	t.Helper()
	return New(vclock.New(vclock.DefaultCostModel()))
}

// load8 and store8 move one byte through the charged LoadBytes and
// StoreBytes paths.
func load8(m *Memory, pkru pku.PKRU, addr Addr) (byte, error) {
	var b [1]byte
	err := m.LoadBytes(pkru, addr, b[:])
	return b[0], err
}

func store8(m *Memory, pkru pku.PKRU, addr Addr, v byte) error {
	b := [1]byte{v}
	return m.StoreBytes(pkru, addr, b[:])
}

// pageAt returns the page containing addr, or nil if it is unmapped.
func pageAt(m *Memory, addr Addr) *page {
	pg, _ := m.lookup(addr.PageNumber())
	return pg
}

func TestMapReturnsPageAlignedDistinctRegions(t *testing.T) {
	m := newMem(t)
	a, err := m.Map(2, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	b, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if a.Offset() != 0 || b.Offset() != 0 {
		t.Error("mappings not page aligned")
	}
	if b < a+2*PageSize {
		t.Errorf("regions overlap: a=%#x b=%#x", uint64(a), uint64(b))
	}
	if got := m.MappedPages(); got != 3 {
		t.Errorf("MappedPages = %d, want 3", got)
	}
}

func TestMapRejectsBadArgs(t *testing.T) {
	m := newMem(t)
	if _, err := m.Map(0, ProtRW, pku.DefaultKey); !errors.Is(err, ErrBadRange) {
		t.Errorf("Map(0 pages) = %v, want ErrBadRange", err)
	}
	if _, err := m.Map(1, ProtRW, pku.Key(99)); err == nil {
		t.Error("Map with invalid key should fail")
	}
}

func TestAddressZeroNeverMapped(t *testing.T) {
	m := newMem(t)
	if pageAt(m, 0) != nil {
		t.Fatal("address 0 mapped")
	}
	_, err := load8(m, pku.PKRUAllowAll, 0)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultUnmapped {
		t.Errorf("null deref err = %v, want FaultUnmapped", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if err := m.Store64(pku.PKRUAllowAll, base+8, 0xdeadbeefcafe); err != nil {
		t.Fatalf("Store64: %v", err)
	}
	v, err := m.Load64(pku.PKRUAllowAll, base+8)
	if err != nil {
		t.Fatalf("Load64: %v", err)
	}
	if v != 0xdeadbeefcafe {
		t.Errorf("Load64 = %#x", v)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(2, ProtRW, pku.DefaultKey)
	addr := base + PageSize - 3 // straddles the boundary
	if err := m.Store64(pku.PKRUAllowAll, addr, 0x1122334455667788); err != nil {
		t.Fatalf("cross-page Store64: %v", err)
	}
	v, err := m.Load64(pku.PKRUAllowAll, addr)
	if err != nil || v != 0x1122334455667788 {
		t.Errorf("cross-page Load64 = %#x, %v", v, err)
	}
}

func TestCrossPageFaultsAtUnmappedSecondPage(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	addr := base + PageSize - 3
	err := m.Store64(pku.PKRUAllowAll, addr, 1)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultUnmapped {
		t.Errorf("err = %v, want FaultUnmapped on second page", err)
	}
	if f != nil && f.Addr.PageNumber() != (base+PageSize).PageNumber() {
		t.Errorf("fault addr = %#x, want on second page", uint64(f.Addr))
	}
}

func TestProtNoneGuardPage(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtNone, pku.DefaultKey)
	_, err := load8(m, pku.PKRUAllowAll, base)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultProt {
		t.Errorf("read of guard page = %v, want FaultProt", err)
	}
	err = store8(m, pku.PKRUAllowAll, base, 1)
	if f, ok = IsFault(err); !ok || f.Kind != FaultProt || !f.Write {
		t.Errorf("write of guard page = %v, want write FaultProt", err)
	}
}

func TestReadOnlyPage(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRead, pku.DefaultKey)
	if _, err := load8(m, pku.PKRUAllowAll, base); err != nil {
		t.Errorf("read of r-- page: %v", err)
	}
	err := store8(m, pku.PKRUAllowAll, base, 1)
	if f, ok := IsFault(err); !ok || f.Kind != FaultProt {
		t.Errorf("write of r-- page = %v, want FaultProt", err)
	}
}

func TestPkeyViolationRead(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.Key(3))
	pkru := pku.OnlyKeys(pku.DefaultKey) // no access to key 3
	_, err := load8(m, pkru, base)
	f, ok := IsFault(err)
	if !ok || f.Kind != FaultPkey {
		t.Fatalf("err = %v, want FaultPkey", err)
	}
	if f.Key != 3 || f.Write {
		t.Errorf("fault = %+v, want key 3 read", f)
	}
}

func TestPkeyWriteDisable(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.Key(5))
	pkru := pku.PKRUAllowAll.WithWriteDisabled(5)
	if _, err := load8(m, pkru, base); err != nil {
		t.Errorf("WD read should succeed: %v", err)
	}
	err := store8(m, pkru, base, 7)
	if f, ok := IsFault(err); !ok || f.Kind != FaultPkey || !f.Write {
		t.Errorf("WD write = %v, want write FaultPkey", err)
	}
}

func TestTagKeyChangesEnforcement(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if err := m.TagKey(base, 1, pku.Key(7)); err != nil {
		t.Fatalf("TagKey: %v", err)
	}
	if k := pageAt(m, base).key; k != 7 {
		t.Fatalf("page key = %v, want 7", k)
	}
	pkru := pku.OnlyKeys(pku.DefaultKey) // no access to key 7
	_, err := load8(m, pkru, base)
	if f, ok := IsFault(err); !ok || f.Kind != FaultPkey {
		t.Errorf("err = %v, want FaultPkey after retag", err)
	}
}

func TestUnmapThenAccessFaults(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(2, ProtRW, pku.DefaultKey)
	if err := m.Unmap(base, 2); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if m.MappedPages() != 0 {
		t.Errorf("MappedPages = %d after unmap", m.MappedPages())
	}
	_, err := load8(m, pku.PKRUAllowAll, base)
	if f, ok := IsFault(err); !ok || f.Kind != FaultUnmapped {
		t.Errorf("err = %v, want FaultUnmapped", err)
	}
}

func TestUnmapBadRange(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if err := m.Unmap(base+1, 1); !errors.Is(err, ErrBadRange) {
		t.Errorf("unaligned Unmap = %v, want ErrBadRange", err)
	}
	if err := m.Unmap(base, 2); !errors.Is(err, ErrBadRange) {
		t.Errorf("oversized Unmap = %v, want ErrBadRange", err)
	}
	// Partially-unmapped ranges are rejected atomically: the mapped page
	// survives a failed Unmap.
	if pageAt(m, base) == nil {
		t.Error("failed Unmap removed pages")
	}
}

func TestZeroClearsContents(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	_ = m.StoreBytes(pku.PKRUAllowAll, base, []byte("secret data"))
	if err := m.Zero(base, 1); err != nil {
		t.Fatalf("Zero: %v", err)
	}
	buf := make([]byte, 16)
	_ = m.LoadBytes(pku.PKRUAllowAll, base, buf)
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Errorf("page not zeroed: %q", buf)
	}
}

func TestProtectTransitions(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	if err := m.Protect(base, 1, ProtRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if p := pageAt(m, base).prot; p != ProtRead {
		t.Fatalf("page prot = %v, want ProtRead", p)
	}
	if err := store8(m, pku.PKRUAllowAll, base, 1); err == nil {
		t.Error("write after Protect(read) should fault")
	}
	if err := m.Protect(base, 1, ProtRW); err != nil {
		t.Fatalf("Protect back: %v", err)
	}
	if err := store8(m, pku.PKRUAllowAll, base, 1); err != nil {
		t.Errorf("write after re-enable: %v", err)
	}
}

func TestAccessesChargeCycles(t *testing.T) {
	clk := vclock.New(vclock.DefaultCostModel())
	m := New(clk)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	before := clk.Cycles()
	_ = m.Store64(pku.PKRUAllowAll, base, 1)
	if clk.Cycles() <= before {
		t.Error("Store64 charged no cycles")
	}
}

func TestNilClockIsAllowed(t *testing.T) {
	m := New(nil)
	base, err := m.Map(1, ProtRW, pku.DefaultKey)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := store8(m, pku.PKRUAllowAll, base, 1); err != nil {
		t.Errorf("Store8: %v", err)
	}
	if m.clock != nil {
		t.Error("clock should be nil")
	}
}

func TestFaultErrorString(t *testing.T) {
	f := &Fault{Kind: FaultPkey, Addr: 0x1000, Write: true, Key: 3}
	s := f.Error()
	if s == "" {
		t.Fatal("empty fault string")
	}
	var err error = f
	got, ok := IsFault(err)
	if !ok || got != f {
		t.Error("IsFault failed to recover fault")
	}
	if _, ok := IsFault(errors.New("other")); ok {
		t.Error("IsFault matched a non-fault")
	}
}

// Property: bytes stored at any in-range offset/length read back equal.
func TestStoreLoadProperty(t *testing.T) {
	m := newMem(t)
	const npages = 4
	base, _ := m.Map(npages, ProtRW, pku.DefaultKey)
	f := func(off uint16, data []byte) bool {
		o := uint64(off) % (npages*PageSize - 1)
		if len(data) > int(npages*PageSize-o) {
			data = data[:npages*PageSize-o]
		}
		addr := base + Addr(o)
		if err := m.StoreBytes(pku.PKRUAllowAll, addr, data); err != nil {
			return false
		}
		back := make([]byte, len(data))
		if err := m.LoadBytes(pku.PKRUAllowAll, addr, back); err != nil {
			return false
		}
		return bytes.Equal(data, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a PKRU that only grants key A can never touch a page tagged
// with a different key B — the core isolation invariant of SDRaD.
func TestIsolationInvariantProperty(t *testing.T) {
	m := newMem(t)
	pages := map[pku.Key]Addr{}
	for k := pku.Key(1); k <= 4; k++ {
		a, err := m.Map(1, ProtRW, k)
		if err != nil {
			t.Fatal(err)
		}
		pages[k] = a
	}
	f := func(aRaw, bRaw uint8) bool {
		a := pku.Key(aRaw%4) + 1
		b := pku.Key(bRaw%4) + 1
		if a == b {
			return true
		}
		pkru := pku.OnlyKeys(pku.DefaultKey, a)
		_, rerr := load8(m, pkru, pages[b])
		werr := store8(m, pkru, pages[b], 0xff)
		fr, okr := IsFault(rerr)
		fw, okw := IsFault(werr)
		return okr && okw && fr.Kind == FaultPkey && fw.Kind == FaultPkey
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestProtString(t *testing.T) {
	cases := map[Prot]string{ProtNone: "--", ProtRead: "r-", ProtWrite: "-w", ProtRW: "rw"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultUnmapped.String() != "SEGV_MAPERR" || FaultPkey.String() != "SEGV_PKUERR" || FaultProt.String() != "SEGV_ACCERR" {
		t.Error("unexpected FaultKind strings")
	}
	if FaultKind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestStatsCounters(t *testing.T) {
	m := newMem(t)
	base, _ := m.Map(1, ProtRW, pku.DefaultKey)
	before := m.Stats()
	_ = m.StoreBytes(pku.PKRUAllowAll, base, make([]byte, 100))
	buf := make([]byte, 50)
	_ = m.LoadBytes(pku.PKRUAllowAll, base, buf)
	_, _ = load8(m, pku.PKRUAllowAll, base)
	_ = store8(m, pku.PKRUAllowAll, base, 1)
	_, _ = load8(m, pku.PKRUAllowAll, 0xdead0000) // fault

	st := m.Stats()
	// Accesses are counted before the permission check (matching the
	// charge-before-fault ordering), so the faulting Load8 counts as an
	// issued load of one byte.
	if st.Stores-before.Stores != 2 || st.Loads-before.Loads != 3 {
		t.Errorf("op counters: %+v", st)
	}
	if st.BytesWritten-before.BytesWritten != 101 || st.BytesRead-before.BytesRead != 52 {
		t.Errorf("byte counters: %+v", st)
	}
	if st.Faults-before.Faults != 1 {
		t.Errorf("fault counter: %+v", st)
	}
}

// TestFaultRendering: a fault renders the text fmt formatted before
// Error was built from appends.
func TestFaultRendering(t *testing.T) {
	for _, f := range []Fault{
		{Kind: FaultPkey, Addr: 0x5f0c8, Write: true, Key: 3},
		{Kind: FaultUnmapped, Addr: 0},
		{Kind: FaultProt, Addr: 1<<64 - 1, Key: 15},
		{Kind: FaultKind(9), Addr: 0xdead_beef_000, Key: 200},
	} {
		op := "read"
		if f.Write {
			op = "write"
		}
		if got, want := f.Error(), fmt.Sprintf("mem: %s fault (%s) at %#x key=%v", op, f.Kind, uint64(f.Addr), f.Key); got != want {
			t.Errorf("renders %q, want %q", got, want)
		}
	}
}
