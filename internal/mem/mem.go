package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/errtype"
	"repro/internal/pku"
	"repro/internal/vclock"
)

// PageSize is the size of one page in bytes.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Addr is a virtual address in the simulated address space.
type Addr uint64

// PageBase returns the address rounded down to its page boundary.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// PageNumber returns the virtual page number containing a.
func (a Addr) PageNumber() uint64 { return uint64(a) >> PageShift }

// Offset returns the offset of a within its page.
func (a Addr) Offset() uint64 { return uint64(a) & (PageSize - 1) }

// Prot is a page protection bit set.
type Prot uint8

// Page protections.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtRW         = ProtRead | ProtWrite
)

// String implements fmt.Stringer.
func (p Prot) String() string {
	r, w := byte('-'), byte('-')
	if p&ProtRead != 0 {
		r = 'r'
	}
	if p&ProtWrite != 0 {
		w = 'w'
	}
	return string([]byte{r, w})
}

// FaultKind classifies a memory fault.
type FaultKind uint8

// Fault kinds, mirroring the information in siginfo_t for SIGSEGV.
const (
	// FaultUnmapped: access to an address with no mapping (SEGV_MAPERR).
	FaultUnmapped FaultKind = iota + 1
	// FaultProt: access violating page protections (SEGV_ACCERR).
	FaultProt
	// FaultPkey: access denied by the PKRU register (SEGV_PKUERR). This
	// is the fault SDRaD interprets as a domain violation.
	FaultPkey
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "SEGV_MAPERR"
	case FaultProt:
		return "SEGV_ACCERR"
	case FaultPkey:
		return "SEGV_PKUERR"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// Fault is a memory access fault. It implements error.
type Fault struct {
	Kind  FaultKind
	Addr  Addr
	Write bool
	// Key is the protection key of the faulting page (valid for
	// FaultProt/FaultPkey).
	Key pku.Key
}

// Error implements error, with the text of
// fmt.Sprintf("mem: %s fault (%s) at %#x key=%v", op, Kind, Addr, Key).
func (f *Fault) Error() string {
	op := "read"
	if f.Write {
		op = "write"
	}
	var addr [16]byte
	return "mem: " + op + " fault (" + f.Kind.String() + ") at 0x" +
		string(strconv.AppendUint(addr[:0], uint64(f.Addr), 16)) + " key=" + f.Key.String()
}

// IsFault reports whether err is (or wraps) a *Fault, returning it.
func IsFault(err error) (*Fault, bool) {
	return errtype.As[*Fault](err)
}

// ErrBadRange is returned for invalid map/unmap/protect ranges.
var ErrBadRange = errors.New("mem: invalid page range")

// ErrDoubleMap is returned when mapping over an existing mapping.
var ErrDoubleMap = errors.New("mem: page already mapped")

type page struct {
	data []byte
	prot Prot
	key  pku.Key
}

// Radix-table geometry: the page-number space is split into leaves of
// leafSize pages. The top level is a growable slice (page numbers are
// handed out by a monotone bump pointer, so they are dense from zero),
// the second level is a fixed array — one pointer chase per walk instead
// of a map probe, and leaf storage doubles as the dirty bitmap.
const (
	leafBits  = 10
	leafSize  = 1 << leafBits // pages per leaf (4 MiB of address space)
	leafMask  = leafSize - 1
	leafWords = leafSize / 64
)

type leaf struct {
	pages [leafSize]*page
	// dirty marks pages whose contents may differ from all-zero: the bit
	// is set on every store and cleared when Zero scrubs the page. Fresh
	// mappings start clean (Map hands out zeroed pages).
	dirty [leafWords]uint64
	// snap marks pages whose contents may have changed since the last
	// ClearModified — the incremental-snapshot bitmap. Maintained only
	// while TrackModified is on; unlike dirty it is never cleared by Zero
	// (a scrub is a modification), only by ClearModified and Unmap.
	snap   [leafWords]uint64
	mapped int // non-nil entries; the leaf is freed when it reaches 0
}

// Software-TLB geometry. The TLB is direct-mapped and caches the result
// of a successful page walk + protection + PKU check for one (page
// number, PKRU) pair. Faulting outcomes are never cached, so the fault
// bookkeeping below stays on the slow path.
const (
	tlbBits = 8
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

type tlbEntry struct {
	pg    *page // nil marks an invalid entry
	lf    *leaf // leaf holding pn, for the store path's dirty-bit update
	pn    uint64
	pkru  pku.PKRU
	read  bool // pkru+prot permit reads of this page
	write bool // pkru+prot permit writes to this page
}

// Memory is the simulated address space. The zero value is not usable;
// call New. Memory is not safe for concurrent use: the simulation is
// single-core (matching the deterministic virtual clock).
type Memory struct {
	leaves []*leaf
	tlb    [tlbSize]tlbEntry
	clock  *vclock.Clock
	// cost caches the clock's cost model (immutable after vclock.New) so
	// the access paths never re-copy the full CostModel struct.
	cost vclock.CostModel
	// next is the bump pointer for fresh mappings, in pages. Start well
	// above zero so that address 0 is never valid (null dereferences
	// fault as unmapped). Page numbers are never reused.
	next       uint64
	mapped     int
	dirtyPages int
	// trackMod enables the modified-since-snapshot bitmaps (snapshot.go).
	// Off by default so the memory-only hot path is unchanged.
	trackMod bool

	stats Stats
}

// Stats counts memory traffic, for diagnostics and for proving
// zero-copy properties (heap adoption must not move bytes).
type Stats struct {
	// Loads and Stores count access operations.
	Loads, Stores uint64
	// BytesRead and BytesWritten count payload bytes moved.
	BytesRead, BytesWritten uint64
	// Faults counts failed accesses.
	Faults uint64
	// TLBHits and TLBMisses count software-TLB outcomes on the access
	// path (host-side instrumentation; no virtual cost).
	TLBHits, TLBMisses uint64
}

// Stats returns a snapshot of the traffic counters.
func (m *Memory) Stats() Stats { return m.stats }

// New returns an empty address space. The clock may be nil, in which case
// no cycle costs are charged.
func New(clock *vclock.Clock) *Memory {
	m := &Memory{
		clock: clock,
		next:  0x10, // first mapping at 0x10000
	}
	if clock != nil {
		m.cost = clock.Model()
	}
	return m
}

func (m *Memory) charge(n uint64) {
	if m.clock != nil {
		m.clock.Advance(n)
	}
}

// lookup walks the radix table, returning the page and its leaf (nil,
// nil when unmapped).
func (m *Memory) lookup(pn uint64) (*page, *leaf) {
	li := pn >> leafBits
	if li >= uint64(len(m.leaves)) {
		return nil, nil
	}
	lf := m.leaves[li]
	if lf == nil {
		return nil, nil
	}
	return lf.pages[pn&leafMask], lf
}

// leafAt returns the leaf for pn, growing the table as needed.
func (m *Memory) leafAt(pn uint64) *leaf {
	li := pn >> leafBits
	for uint64(len(m.leaves)) <= li {
		m.leaves = append(m.leaves, nil)
	}
	if m.leaves[li] == nil {
		m.leaves[li] = new(leaf)
	}
	return m.leaves[li]
}

// flushTLB invalidates every cached translation. Called by the mapping
// operations (Unmap/Protect/TagKey) — the simulated counterparts of the
// kernel paths that perform TLB shootdowns. PKRU writes need no flush:
// the register value tags each entry.
func (m *Memory) flushTLB() {
	for i := range m.tlb {
		m.tlb[i].pg = nil
	}
}

// markDirty records that page pn (held by lf) may now hold nonzero
// bytes, and — when modified-page tracking is on — that it changed
// since the last snapshot baseline. The snap bit must be set even when
// the dirty bit already was: a page written before a snapshot and again
// after it is dirty throughout, but only the second write makes it part
// of the next incremental capture.
func (m *Memory) markDirty(lf *leaf, pn uint64) {
	idx := pn & leafMask
	bit := uint64(1) << (idx & 63)
	w := &lf.dirty[idx>>6]
	if *w&bit == 0 {
		*w |= bit
		m.dirtyPages++
	}
	if m.trackMod {
		lf.snap[idx>>6] |= bit
	}
}

// DirtyPages returns the number of mapped pages currently marked dirty
// (written since they were last known all-zero).
func (m *Memory) DirtyPages() int { return m.dirtyPages }

// Map allocates npages fresh pages with the given protections and key tag
// and returns the base address of the new region.
func (m *Memory) Map(npages int, prot Prot, key pku.Key) (Addr, error) {
	if npages <= 0 {
		return 0, fmt.Errorf("%w: %d pages", ErrBadRange, npages)
	}
	if !key.Valid() {
		return 0, fmt.Errorf("mem: %w: %v", pku.ErrKeyNotAllocated, key)
	}
	base := m.next
	for i := 0; i < npages; i++ {
		pn := base + uint64(i)
		lf := m.leafAt(pn)
		lf.pages[pn&leafMask] = &page{
			data: make([]byte, PageSize),
			prot: prot,
			key:  key,
		}
		lf.mapped++
	}
	m.mapped += npages
	m.next = base + uint64(npages)
	m.charge(m.cost.PageMap * uint64(npages))
	return Addr(base << PageShift), nil
}

// Unmap removes npages pages starting at base. Base must be page-aligned
// and all pages must be mapped.
func (m *Memory) Unmap(base Addr, npages int) error {
	if err := m.checkRange(base, npages); err != nil {
		return err
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		p := pn + uint64(i)
		li := p >> leafBits
		lf := m.leaves[li]
		idx := p & leafMask
		lf.pages[idx] = nil
		bit := uint64(1) << (idx & 63)
		w := &lf.dirty[idx>>6]
		if *w&bit != 0 {
			*w &^= bit
			m.dirtyPages--
		}
		lf.snap[idx>>6] &^= bit
		lf.mapped--
		if lf.mapped == 0 {
			m.leaves[li] = nil
		}
	}
	m.mapped -= npages
	m.flushTLB()
	m.charge(m.cost.PageUnmap * uint64(npages))
	return nil
}

// Protect changes the page protections of npages pages starting at base,
// like mprotect(2). The pkey_mprotect cost is charged per page: the
// syscall updates every PTE in the range (and shoots down its TLB
// entries), so an n-page range costs n times the single-page operation.
func (m *Memory) Protect(base Addr, npages int, prot Prot) error {
	if err := m.checkRange(base, npages); err != nil {
		return err
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		pg, _ := m.lookup(pn + uint64(i))
		pg.prot = prot
	}
	m.flushTLB()
	m.charge(m.cost.PkeyMprotect * uint64(npages))
	return nil
}

// TagKey assigns protection key to npages pages starting at base, like
// pkey_mprotect(2) without changing protections. Charged per page, like
// Protect.
func (m *Memory) TagKey(base Addr, npages int, key pku.Key) error {
	if !key.Valid() {
		return fmt.Errorf("mem: %w: %v", pku.ErrKeyNotAllocated, key)
	}
	if err := m.checkRange(base, npages); err != nil {
		return err
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		pg, _ := m.lookup(pn + uint64(i))
		pg.key = key
	}
	m.flushTLB()
	m.charge(m.cost.PkeyMprotect * uint64(npages))
	return nil
}

// Zero clears the contents of npages pages starting at base without any
// permission checks (kernel-side operation used by domain discard).
//
// The virtual cost is PageZero per page over the whole range — the
// simulated machine scrubs every page — but the host only memsets pages
// whose dirty bit is set: a page that was never written since its last
// Zero (or since Map) is already all-zero, so skipping it is
// unobservable. This is what makes discard O(pages touched) instead of
// O(pages mapped) on the host.
func (m *Memory) Zero(base Addr, npages int) error {
	if err := m.checkRange(base, npages); err != nil {
		return err
	}
	pn := base.PageNumber()
	for i := 0; i < npages; {
		p := pn + uint64(i)
		lf := m.leaves[p>>leafBits]
		idx := p & leafMask
		// Skip a whole clean bitmap word when the range covers it.
		if idx&63 == 0 && npages-i >= 64 && lf.dirty[idx>>6] == 0 {
			i += 64
			continue
		}
		w := &lf.dirty[idx>>6]
		if bit := uint64(1) << (idx & 63); *w&bit != 0 {
			clear(lf.pages[idx].data)
			*w &^= bit
			m.dirtyPages--
			if m.trackMod {
				// The scrub changed the page relative to the snapshot
				// baseline (it held nonzero bytes a moment ago), so the
				// next incremental capture must re-serialize it. Pages
				// the fast path above skips are already all-zero and are
				// not modified by Zero.
				lf.snap[idx>>6] |= bit
			}
		}
		i++
	}
	m.charge(m.cost.PageZero * uint64(npages))
	return nil
}

// MappedPages returns the number of currently mapped pages.
func (m *Memory) MappedPages() int { return m.mapped }

func (m *Memory) checkRange(base Addr, npages int) error {
	if npages <= 0 || base.Offset() != 0 {
		return fmt.Errorf("%w: base=%#x npages=%d", ErrBadRange, uint64(base), npages)
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		if pg, _ := m.lookup(pn + uint64(i)); pg == nil {
			return fmt.Errorf("%w: page %#x not mapped", ErrBadRange, (pn+uint64(i))<<PageShift)
		}
	}
	return nil
}

// access validates a single-page access and returns the page. The TLB
// fast path serves repeat accesses to the same (page, PKRU) pair without
// re-walking the table or re-evaluating protections; misses and faults
// take accessSlow.
func (m *Memory) access(pkru pku.PKRU, addr Addr, write bool) (*page, error) {
	pn := addr.PageNumber()
	e := &m.tlb[pn&tlbMask]
	if e.pg != nil && e.pn == pn && e.pkru == pkru {
		if write {
			if e.write {
				m.stats.TLBHits++
				m.markDirty(e.lf, pn)
				return e.pg, nil
			}
		} else if e.read {
			m.stats.TLBHits++
			return e.pg, nil
		}
	}
	return m.accessSlow(pkru, addr, write)
}

func (m *Memory) accessSlow(pkru pku.PKRU, addr Addr, write bool) (*page, error) {
	m.stats.TLBMisses++
	pn := addr.PageNumber()
	pg, lf := m.lookup(pn)
	if pg == nil {
		m.stats.Faults++
		return nil, &Fault{Kind: FaultUnmapped, Addr: addr, Write: write}
	}
	need := ProtRead
	if write {
		need = ProtWrite
	}
	if pg.prot&need == 0 {
		m.stats.Faults++
		return nil, &Fault{Kind: FaultProt, Addr: addr, Write: write, Key: pg.key}
	}
	// PKU check: reads need CanRead, writes need CanWrite.
	if write {
		if !pkru.CanWrite(pg.key) {
			m.stats.Faults++
			return nil, &Fault{Kind: FaultPkey, Addr: addr, Write: true, Key: pg.key}
		}
	} else if !pkru.CanRead(pg.key) {
		m.stats.Faults++
		return nil, &Fault{Kind: FaultPkey, Addr: addr, Write: false, Key: pg.key}
	}
	// Successful walk: cache the full outcome for this (page, PKRU).
	m.tlb[pn&tlbMask] = tlbEntry{
		pg:    pg,
		lf:    lf,
		pn:    pn,
		pkru:  pkru,
		read:  pg.prot&ProtRead != 0 && pkru.CanRead(pg.key),
		write: pg.prot&ProtWrite != 0 && pkru.CanWrite(pg.key),
	}
	if write {
		m.markDirty(lf, pn)
	}
	return pg, nil
}

// LoadBytes copies len(dst) bytes starting at addr into dst, checking
// permissions page by page. On fault, dst contents are unspecified.
// Cycles are charged before the permission check (charge-before-fault):
// the access consumes its cost whether or not it faults.
func (m *Memory) LoadBytes(pkru pku.PKRU, addr Addr, dst []byte) error {
	m.charge(m.cost.MemLoad + m.cost.MemPerByte*uint64(len(dst)))
	m.stats.Loads++
	m.stats.BytesRead += uint64(len(dst))
	for len(dst) > 0 {
		pg, err := m.access(pkru, addr, false)
		if err != nil {
			return err
		}
		off := addr.Offset()
		n := copy(dst, pg.data[off:])
		dst = dst[n:]
		addr += Addr(n)
	}
	return nil
}

// StoreBytes copies src into memory starting at addr, checking
// permissions page by page. A fault midway leaves earlier pages written
// (matching hardware semantics of a multi-page copy). Cycles are charged
// before the permission check, like LoadBytes.
func (m *Memory) StoreBytes(pkru pku.PKRU, addr Addr, src []byte) error {
	m.charge(m.cost.MemStore + m.cost.MemPerByte*uint64(len(src)))
	m.stats.Stores++
	m.stats.BytesWritten += uint64(len(src))
	for len(src) > 0 {
		pg, err := m.access(pkru, addr, true)
		if err != nil {
			return err
		}
		off := addr.Offset()
		n := copy(pg.data[off:], src)
		src = src[n:]
		addr += Addr(n)
	}
	return nil
}

// Load64 loads a little-endian uint64 (may span pages).
func (m *Memory) Load64(pkru pku.PKRU, addr Addr) (uint64, error) {
	var buf [8]byte
	if err := m.LoadBytes(pkru, addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Store64 stores a little-endian uint64 (may span pages).
func (m *Memory) Store64(pkru pku.PKRU, addr Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return m.StoreBytes(pkru, addr, buf[:])
}

// PeekBytes copies bytes out of mapped memory without permission checks
// or cycle charges — kernel-side metadata access. The allocator uses it
// to walk its in-band chunk headers at the same (zero) virtual cost its
// former host-side side tables had, keeping cycle accounting identical
// to the seed.
//
//lint:uncharged
func (m *Memory) PeekBytes(addr Addr, dst []byte) error {
	for len(dst) > 0 {
		pg, _ := m.lookup(addr.PageNumber())
		if pg == nil {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		n := copy(dst, pg.data[addr.Offset():])
		dst = dst[n:]
		addr += Addr(n)
	}
	return nil
}

// Peek64 reads a little-endian uint64 without permission checks or cycle
// charges (see PeekBytes).
//
//lint:uncharged
func (m *Memory) Peek64(addr Addr) (uint64, error) {
	var buf [8]byte
	if err := m.PeekBytes(addr, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Poke64 writes a little-endian uint64 without permission checks or
// cycle charges — the store-side counterpart of Peek64, for allocator
// metadata maintenance. The touched page is marked dirty so a later Zero
// still scrubs it.
//
//lint:uncharged
func (m *Memory) Poke64(addr Addr, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	src := buf[:]
	for len(src) > 0 {
		pn := addr.PageNumber()
		pg, lf := m.lookup(pn)
		if pg == nil {
			return &Fault{Kind: FaultUnmapped, Addr: addr, Write: true}
		}
		n := copy(pg.data[addr.Offset():], src)
		m.markDirty(lf, pn)
		src = src[n:]
		addr += Addr(n)
	}
	return nil
}
