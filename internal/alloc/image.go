package alloc

import (
	"fmt"

	"repro/internal/mem"
)

// This file implements heap image capture and restore — the allocator
// half of the durability engine (internal/persist). A capture is the
// heap's region geometry plus the raw contents of the pages that
// changed since the previous capture; because the allocator's metadata
// (size fields, canaries, freed markers, redzones) lives in-band inside
// the heap pages, it travels free with the page images and no separate
// allocator serialization exists. Restore writes the pages back at
// their original addresses and re-derives the host-side bookkeeping
// (free lists, live counters) by walking the in-band chunk chain — the
// same walk CheckIntegrity performs — so a restored heap validates
// under the existing integrity sweep.

// PageImage is one captured page: its page number and its full
// PageSize contents at capture time.
type PageImage struct {
	PN   uint64
	Data []byte
}

// RegionImage records one heap region's geometry at capture time.
type RegionImage struct {
	Base   mem.Addr
	NPages int
	// Used is the region's bump offset: the byte boundary up to which
	// the in-band chunk chain is valid.
	Used uint64
}

// HeapImage is a point-in-time heap capture: full region geometry plus
// the page set that changed since the previous capture (every page for
// a full capture). Page images within one capture are in ascending
// page-number order.
type HeapImage struct {
	Regions []RegionImage
	Pages   []PageImage
}

// TrackModified enables modified-page tracking on the heap's backing
// memory, so incremental captures can enumerate exactly the pages
// written since the previous one. Call once, before the first write
// that a later CaptureImage(true) must observe. Tracking is a property
// of the whole address space, so every heap on the same Memory shares
// it; only captured regions are ever enumerated.
func (h *Heap) TrackModified() { h.m.TrackModified(true) }

// CaptureImage captures the heap: region geometry plus page contents.
// With incremental=false every potentially nonzero page is captured
// (pages omitted are all-zero, which is what a restored mapping holds
// anyway); with incremental=true only pages modified since the previous
// capture are included, which requires TrackModified to have been on
// since before those modifications. Either way the call resets the
// modified baseline, so the next incremental capture starts here.
func (h *Heap) CaptureImage(incremental bool) (*HeapImage, error) {
	img := &HeapImage{Regions: make([]RegionImage, len(h.regions))}
	for i, r := range h.regions {
		img.Regions[i] = RegionImage{Base: r.base, NPages: r.npages, Used: r.used}
		var (
			pns []uint64
			err error
		)
		if incremental {
			pns, err = h.m.ModifiedPages(r.base, r.npages)
		} else {
			pns, err = h.m.NonZeroPages(r.base, r.npages)
		}
		if err != nil {
			return nil, fmt.Errorf("alloc: capture region %d: %w", i, err)
		}
		for _, pn := range pns {
			data := make([]byte, mem.PageSize)
			if err := h.m.PeekBytes(mem.Addr(pn<<mem.PageShift), data); err != nil {
				return nil, fmt.Errorf("alloc: capture page %#x: %w", pn, err)
			}
			img.Pages = append(img.Pages, PageImage{PN: pn, Data: data})
		}
		if err := h.m.ClearModified(r.base, r.npages); err != nil {
			return nil, fmt.Errorf("alloc: capture baseline region %d: %w", i, err)
		}
	}
	return img, nil
}

// RestoreImage rebuilds the heap from a (merged) capture. The heap must
// be freshly constructed with the same configuration as the captured
// one: its existing regions must match the image's leading regions
// exactly (a deterministic construction order makes the bases line up),
// and regions the captured heap grew are re-mapped at their original
// addresses via MapAt. Page contents are written back kernel-side, and
// the free lists and live counters are re-derived from the in-band
// chunk chain. RestoreImage does not validate canaries — run
// CheckIntegrity afterwards, exactly as a domain exit would, to prove
// the restored heap sound. Free lists are rebuilt in address order, so
// post-restore allocations may recycle chunks in a different order than
// the uncrashed process would have; liveness and contents are
// unaffected. Cumulative counters (TotalAllocs/TotalFrees/PeakBytes)
// restart from the restored live state.
func (h *Heap) RestoreImage(img *HeapImage) error {
	if len(img.Regions) == 0 {
		return fmt.Errorf("alloc: restore: image has no regions")
	}
	if len(h.regions) > len(img.Regions) {
		return fmt.Errorf("alloc: restore: heap has %d regions, image %d", len(h.regions), len(img.Regions))
	}
	for i, r := range img.Regions {
		if i < len(h.regions) {
			if h.regions[i].base != r.Base || h.regions[i].npages != r.NPages {
				return fmt.Errorf("alloc: restore: region %d geometry mismatch: heap %#x/%d vs image %#x/%d",
					i, uint64(h.regions[i].base), h.regions[i].npages, uint64(r.Base), r.NPages)
			}
		} else {
			if err := h.m.MapAt(r.Base, r.NPages, mem.ProtRW, h.key); err != nil {
				return fmt.Errorf("alloc: restore: region %d: %w", i, err)
			}
			h.regions = append(h.regions, region{base: r.Base, npages: r.NPages})
		}
		if r.Used > uint64(r.NPages)*mem.PageSize {
			return fmt.Errorf("alloc: restore: region %d used %d exceeds %d pages", i, r.Used, r.NPages)
		}
		h.regions[i].used = r.Used
	}
	for _, p := range img.Pages {
		if len(p.Data) != mem.PageSize {
			return fmt.Errorf("alloc: restore: page %#x image is %d bytes", p.PN, len(p.Data))
		}
		if err := h.m.PokeBytes(mem.Addr(p.PN<<mem.PageShift), p.Data); err != nil {
			return fmt.Errorf("alloc: restore: page %#x: %w", p.PN, err)
		}
	}
	return h.reindex()
}

// reindex rebuilds the host-side bookkeeping from the in-band chunk
// chain: freed chunks (identified by their freed-marker canary) rejoin
// their size-class free lists, live chunks rebuild the live counters.
// The walk terminates at each region's bump offset, like
// CheckIntegrity; a size field that does not parse means the image is
// corrupt.
func (h *Heap) reindex() error {
	for i := range h.free {
		h.free[i] = h.free[i][:0]
	}
	h.liveChunks = 0
	h.allocated = 0
	h.totalAlloc = 0
	h.totalFree = 0
	for ri := range h.regions {
		r := &h.regions[ri]
		for off := uint64(0); off < r.used; {
			chunk := r.base + mem.Addr(off)
			size, err := h.m.Peek64(chunk)
			if err != nil {
				return fmt.Errorf("alloc: reindex header read: %w", err)
			}
			c, ok := classFor(int(size))
			if !ok {
				return fmt.Errorf("%w: restored size field at %#x (%d)", ErrHeapCorruption, uint64(chunk), size)
			}
			got, err := h.m.Peek64(chunk + 8)
			if err != nil {
				return fmt.Errorf("alloc: reindex canary read: %w", err)
			}
			if got == h.canary(chunk)^freedMark {
				h.free[c] = append(h.free[c], chunk)
				h.totalFree++
			} else {
				h.liveChunks++
				h.allocated += size
				h.totalAlloc++
			}
			off += uint64(ClassSize(c)) + Overhead
		}
	}
	h.peak = h.allocated
	return nil
}
