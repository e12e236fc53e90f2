package mem

import (
	"fmt"

	"repro/internal/pku"
)

// This file is the page-table interface of the durability engine
// (internal/persist): opt-in tracking of pages modified since the last
// snapshot baseline, enumeration of page sets for full and incremental
// capture, a fixed-address mapping primitive so recovery can rebuild a
// grown heap at its original addresses, and a kernel-side page write for
// restoring captured contents. Everything here is host-side snapshot
// machinery — none of it runs on behalf of simulated code — so, like
// the dirty bitmap itself, it charges no virtual cycles except MapAt,
// which is an ordinary mapping operation.

// TrackModified enables (or disables) the modified-since-snapshot
// bitmaps. While on, every store — charged or kernel-side — marks its
// page in a second per-leaf bitmap that only ClearModified resets, so
// an incremental snapshot can serialize exactly the pages that changed
// since the previous one. Off (the default), the bitmaps are not
// maintained and the access hot path is unchanged.
func (m *Memory) TrackModified(on bool) { m.trackMod = on }

// NonZeroPages returns, in ascending order, the page numbers in
// [base, base+npages) whose contents may be nonzero (the dirty bitmap).
// This is the page set of a full snapshot: every page it omits is
// all-zero, which is what a freshly restored mapping holds anyway.
func (m *Memory) NonZeroPages(base Addr, npages int) ([]uint64, error) {
	return m.pagesWithBit(base, npages, func(lf *leaf, word int, bit uint64) bool {
		return lf.dirty[word]&bit != 0
	})
}

// ModifiedPages returns, in ascending order, the page numbers in
// [base, base+npages) modified since the last ClearModified — the page
// set of an incremental snapshot. Meaningful only while TrackModified
// is on; with tracking off it returns pages modified before it was
// switched off (or nothing).
func (m *Memory) ModifiedPages(base Addr, npages int) ([]uint64, error) {
	return m.pagesWithBit(base, npages, func(lf *leaf, word int, bit uint64) bool {
		return lf.snap[word]&bit != 0
	})
}

func (m *Memory) pagesWithBit(base Addr, npages int, pick func(lf *leaf, word int, bit uint64) bool) ([]uint64, error) {
	if err := m.checkRange(base, npages); err != nil {
		return nil, err
	}
	var out []uint64
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		p := pn + uint64(i)
		lf := m.leaves[p>>leafBits]
		idx := p & leafMask
		if pick(lf, int(idx>>6), uint64(1)<<(idx&63)) {
			out = append(out, p)
		}
	}
	return out, nil
}

// ClearModified resets the modified-since-snapshot bits for
// [base, base+npages), establishing a new incremental baseline. Called
// after the pages returned by ModifiedPages (or NonZeroPages, for the
// first capture) have been serialized.
func (m *Memory) ClearModified(base Addr, npages int) error {
	if err := m.checkRange(base, npages); err != nil {
		return err
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		p := pn + uint64(i)
		lf := m.leaves[p>>leafBits]
		idx := p & leafMask
		lf.snap[idx>>6] &^= uint64(1) << (idx & 63)
	}
	return nil
}

// MapAt maps npages fresh zeroed pages at the fixed base address — the
// MAP_FIXED analog recovery uses to rebuild grown heap regions at the
// addresses the captured allocator metadata (sizes, canaries) was
// computed for. Base must be page-aligned and the whole range unmapped;
// mapping over an existing page is ErrDoubleMap. The bump pointer
// advances past the region so later Map calls never collide with it.
func (m *Memory) MapAt(base Addr, npages int, prot Prot, key pku.Key) error {
	if npages <= 0 || base.Offset() != 0 {
		return fmt.Errorf("%w: base=%#x npages=%d", ErrBadRange, uint64(base), npages)
	}
	if !key.Valid() {
		return fmt.Errorf("mem: %w: %v", pku.ErrKeyNotAllocated, key)
	}
	pn := base.PageNumber()
	for i := 0; i < npages; i++ {
		if pg, _ := m.lookup(pn + uint64(i)); pg != nil {
			return fmt.Errorf("%w: page %#x", ErrDoubleMap, (pn+uint64(i))<<PageShift)
		}
	}
	for i := 0; i < npages; i++ {
		p := pn + uint64(i)
		lf := m.leafAt(p)
		lf.pages[p&leafMask] = &page{
			data: make([]byte, PageSize),
			prot: prot,
			key:  key,
		}
		lf.mapped++
	}
	m.mapped += npages
	if end := pn + uint64(npages); end > m.next {
		m.next = end
	}
	m.charge(m.cost.PageMap * uint64(npages))
	return nil
}

// PokeBytes copies src into mapped memory without permission checks or
// cycle charges — the bulk counterpart of Poke64, used by snapshot
// restore to write captured page images back. Touched pages are marked
// dirty (and, under TrackModified, modified) so a later Zero still
// scrubs them and the next incremental capture sees them.
//
//lint:uncharged
func (m *Memory) PokeBytes(addr Addr, src []byte) error {
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
