package alloc

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/pku"
)

const (
	headerSize  = 16 // [size:8][canary:8]
	trailerSize = 8  // [canary:8]
	// minClass is the smallest chunk payload size class.
	minClass = 16
	// numClasses covers payloads 16 B .. 8 MiB.
	numClasses = 20
)

// freedMark is XORed into the header canary when a chunk is freed: the
// marker is unforgeable without the heap secret (it is derived from the
// live canary) and never equals the live canary.
const freedMark = 0x6672_6565_6672_6565 // "freefree"

// Overhead is the per-allocation metadata overhead in bytes.
const Overhead = headerSize + trailerSize

// Sentinel errors.
var (
	// ErrHeapCorruption is returned when a canary or redzone check fails.
	// SDRaD treats this as a domain violation triggering rewind.
	ErrHeapCorruption = errors.New("alloc: heap corruption detected")
	// ErrBadFree is returned for frees of addresses that were never
	// allocated (or were already freed).
	ErrBadFree = errors.New("alloc: invalid free")
	// ErrOutOfMemory is returned when the heap cannot grow further.
	ErrOutOfMemory = errors.New("alloc: out of memory")
	// ErrTooLarge is returned for requests above the maximum size class.
	ErrTooLarge = errors.New("alloc: allocation too large")
)

// Heap is a per-domain heap. Create with New. Not safe for concurrent
// use: a domain executes on a single simulated hardware thread.
type Heap struct {
	m      *mem.Memory
	key    pku.Key
	pkru   pku.PKRU // rights the allocator itself runs with
	secret uint64

	regions []region
	// free[i] holds freed chunk base addresses for class i.
	free [numClasses][]mem.Addr
	// liveChunks counts allocations not yet freed (chunk liveness itself
	// is recorded in-band via the header canary marker).
	liveChunks int

	maxPages   int
	allocated  uint64 // current live payload bytes
	totalAlloc uint64 // cumulative Alloc calls
	totalFree  uint64
	peak       uint64
}

type region struct {
	base   mem.Addr
	npages int
	used   uint64 // bump offset
}

// Config configures a Heap.
type Config struct {
	// InitialPages is the number of pages mapped up front (default 16).
	InitialPages int
	// MaxPages bounds heap growth (default 1 << 20 pages = 4 GiB).
	MaxPages int
	// Secret seeds the canary values. A zero secret is replaced by a
	// fixed non-zero constant so canaries are never trivially zero.
	Secret uint64
}

// New creates a heap whose pages are tagged with the domain's key.
func New(m *mem.Memory, key pku.Key, cfg Config) (*Heap, error) {
	if cfg.InitialPages <= 0 {
		cfg.InitialPages = 16
	}
	if cfg.MaxPages <= 0 {
		cfg.MaxPages = 1 << 20
	}
	if cfg.Secret == 0 {
		cfg.Secret = 0x5d8a_d0c4_ca12_71e5 ^ (uint64(key) << 56) ^ 0xa5a5_a5a5_5a5a_5a5a
	}
	h := &Heap{
		m:        m,
		key:      key,
		pkru:     pku.OnlyKeys(pku.DefaultKey, key),
		secret:   cfg.Secret,
		maxPages: cfg.MaxPages,
	}
	if err := h.grow(cfg.InitialPages); err != nil {
		return nil, err
	}
	return h, nil
}

// Key returns the protection key tagging the heap's pages.
func (h *Heap) Key() pku.Key { return h.key }

// Rekey updates the key the allocator believes its pages are tagged with
// (the caller must have re-tagged the pages via mem.TagKey). Used by the
// heap-adoption path, where a domain's pages move to the root key.
func (h *Heap) Rekey(key pku.Key) error {
	if !key.Valid() {
		return fmt.Errorf("alloc: %w: %v", pku.ErrKeyNotAllocated, key)
	}
	h.key = key
	h.pkru = pku.OnlyKeys(pku.DefaultKey, key)
	return nil
}

// Regions returns the base address and page count of each mapped region.
func (h *Heap) Regions() []struct {
	Base   mem.Addr
	NPages int
} {
	out := make([]struct {
		Base   mem.Addr
		NPages int
	}, len(h.regions))
	for i, r := range h.regions {
		out[i].Base = r.base
		out[i].NPages = r.npages
	}
	return out
}

func (h *Heap) grow(npages int) error {
	total := 0
	for _, r := range h.regions {
		total += r.npages
	}
	if total+npages > h.maxPages {
		return fmt.Errorf("%w: %d+%d pages exceeds max %d", ErrOutOfMemory, total, npages, h.maxPages)
	}
	base, err := h.m.Map(npages, mem.ProtRW, h.key)
	if err != nil {
		return fmt.Errorf("alloc: grow: %w", err)
	}
	h.regions = append(h.regions, region{base: base, npages: npages})
	return nil
}

// classFor returns the size-class index for a payload of n bytes; ok
// is false when no class holds n (n <= 0, or above the largest class).
func classFor(n int) (c int, ok bool) {
	if n <= 0 {
		return 0, false
	}
	if n <= minClass {
		return 0, true
	}
	c = bits.Len64(uint64(n-1)) - 4 // smallest c with minClass<<c >= n
	if c >= numClasses {
		return 0, false
	}
	return c, true
}

// ClassSize returns the payload capacity of size class c.
func ClassSize(c int) int { return minClass << c }

// zeroSrc is a process-wide, grow-only all-zero buffer used as the
// source for payload scrubs: one buffer serves every heap (pool workers
// included) instead of each heap retaining its own up-to-8-MiB copy.
// Its contents are never written, so concurrent readers are safe; a
// racing grow is last-writer-wins, which only costs a re-allocation.
var zeroSrc atomic.Pointer[[]byte]

func zeroBuf(n int) []byte {
	if p := zeroSrc.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	b := make([]byte, n)
	zeroSrc.Store(&b)
	return b
}

func (h *Heap) canary(chunk mem.Addr) uint64 {
	// Mix the chunk address with the heap secret (xorshift-style).
	x := uint64(chunk) ^ h.secret
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	if x == 0 {
		x = h.secret | 1
	}
	return x
}

// isChunkStart walks the bump chain of the region containing chunk and
// reports whether chunk is an actual chunk base. Kernel-side peeks only
// (no virtual cost); used on Free's error path to classify bad
// pointers. A desynced walk (smashed size field en route) conservatively
// reports true: the heap is corrupt either way.
func (h *Heap) isChunkStart(chunk mem.Addr) bool {
	for ri := range h.regions {
		r := &h.regions[ri]
		if chunk < r.base || chunk >= r.base+mem.Addr(r.used) {
			continue
		}
		for off := uint64(0); off < r.used; {
			at := r.base + mem.Addr(off)
			if at == chunk {
				return true
			}
			if at > chunk {
				return false
			}
			size, err := h.m.Peek64(at)
			if err != nil {
				return true
			}
			c, ok := classFor(int(size))
			if !ok {
				return true
			}
			off += uint64(ClassSize(c)) + Overhead
		}
		return false
	}
	return false
}

// chunkOf reports whether p can be the payload address of a chunk in one
// of the heap's regions (in-band metadata range check — the replacement
// for the former live-map membership test, at the same zero virtual
// cost).
func (h *Heap) chunkOf(p mem.Addr) (mem.Addr, bool) {
	if p < headerSize {
		return 0, false
	}
	chunk := p - headerSize
	for i := range h.regions {
		r := &h.regions[i]
		if chunk >= r.base && chunk < r.base+mem.Addr(r.used) {
			return chunk, true
		}
	}
	return 0, false
}

// Alloc allocates n bytes and returns the payload address. The payload is
// zeroed.
func (h *Heap) Alloc(n int) (mem.Addr, error) {
	c, ok := classFor(n)
	if !ok {
		if n <= 0 {
			return 0, fmt.Errorf("%w: size %d", ErrTooLarge, n)
		}
		return 0, fmt.Errorf("%w: %d bytes (max %d)", ErrTooLarge, n, minClass<<(numClasses-1))
	}
	chunkSize := uint64(ClassSize(c) + Overhead)

	var chunk mem.Addr
	var err error
	if fl := h.free[c]; len(fl) > 0 {
		chunk = fl[len(fl)-1]
		// Validate the chunk before recycling it — the tcache-key check of
		// hardened glibc. Reusing a corrupted freed chunk would overwrite
		// the evidence (header, canary, redzone are all rewritten below)
		// and let a use-after-free or freed-header smash escape the next
		// integrity sweep; detecting it here keeps "no corruption ever goes
		// unnoticed" true even when many calls share one sweep (the batched
		// execution path). Kernel-side peeks: no charged traffic, so the
		// benign Alloc cycle sequence is unchanged (TestAllocFreeCycleParity).
		if err := h.checkFreedChunk(chunk, c); err != nil {
			return 0, err
		}
		h.free[c] = fl[:len(fl)-1]
	} else {
		chunk, err = h.bump(chunkSize)
		if err != nil {
			return 0, err
		}
	}

	payload := chunk + headerSize
	// Write header: size and canary (the live canary also clears any
	// freed marker left by a previous Free of this chunk).
	if err := h.m.Store64(h.pkru, chunk, uint64(n)); err != nil {
		return 0, fmt.Errorf("alloc: header write: %w", err)
	}
	if err := h.m.Store64(h.pkru, chunk+8, h.canary(chunk)); err != nil {
		return 0, fmt.Errorf("alloc: canary write: %w", err)
	}
	// Zero payload and write trailing redzone.
	if err := h.m.StoreBytes(h.pkru, payload, zeroBuf(ClassSize(c))); err != nil {
		return 0, fmt.Errorf("alloc: payload zero: %w", err)
	}
	if err := h.m.Store64(h.pkru, payload+mem.Addr(ClassSize(c)), h.canary(chunk)); err != nil {
		return 0, fmt.Errorf("alloc: redzone write: %w", err)
	}

	h.liveChunks++
	h.allocated += uint64(n)
	h.totalAlloc++
	if h.allocated > h.peak {
		h.peak = h.allocated
	}
	return payload, nil
}

func (h *Heap) bump(chunkSize uint64) (mem.Addr, error) {
	r := &h.regions[len(h.regions)-1]
	capacity := uint64(r.npages) * mem.PageSize
	if r.used+chunkSize > capacity {
		// Double the last region size (at least enough for the chunk).
		np := r.npages * 2
		need := int((chunkSize + mem.PageSize - 1) / mem.PageSize)
		if np < need {
			np = need
		}
		if err := h.grow(np); err != nil {
			return 0, err
		}
		r = &h.regions[len(h.regions)-1]
	}
	chunk := r.base + mem.Addr(r.used)
	r.used += chunkSize
	return chunk, nil
}

// checkFreedChunk validates a free-list chunk of class c exactly as the
// integrity sweep would: the header canary must carry the freed marker
// and the redzone must still hold the live canary Free left behind.
// Kernel-side peeks only — no charged memory traffic.
func (h *Heap) checkFreedChunk(chunk mem.Addr, c int) error {
	want := h.canary(chunk)
	got, err := h.m.Peek64(chunk + 8)
	if err != nil {
		return fmt.Errorf("alloc: freed canary read: %w", err)
	}
	if got != want^freedMark {
		return &CheckError{Check: FreedHeader, Addr: chunk, Got: got, Want: want ^ freedMark}
	}
	rz, err := h.m.Peek64(chunk + headerSize + mem.Addr(ClassSize(c)))
	if err != nil {
		return fmt.Errorf("alloc: freed redzone read: %w", err)
	}
	if rz != want {
		return &CheckError{Check: FreedRedzone, Addr: chunk, Got: rz, Want: want}
	}
	return nil
}

// checkChunk verifies the canaries of the chunk whose payload is at p.
func (h *Heap) checkChunk(p mem.Addr, class int) error {
	chunk := p - headerSize
	want := h.canary(chunk)
	got, err := h.m.Load64(h.pkru, chunk+8)
	if err != nil {
		return fmt.Errorf("alloc: canary read: %w", err)
	}
	if got != want {
		return &CheckError{Check: HeaderCanary, Addr: chunk, Got: got, Want: want}
	}
	rz, err := h.m.Load64(h.pkru, p+mem.Addr(ClassSize(class)))
	if err != nil {
		return fmt.Errorf("alloc: redzone read: %w", err)
	}
	if rz != want {
		return &CheckError{Check: Redzone, Addr: p + mem.Addr(ClassSize(class)), Got: rz, Want: want}
	}
	return nil
}

// Free releases the allocation whose payload address is p, after
// validating both canaries. A canary mismatch returns ErrHeapCorruption —
// SDRaD's cue to rewind the domain. A double free (freed-marker canary)
// or an address outside any chunk returns ErrBadFree.
func (h *Heap) Free(p mem.Addr) error {
	chunk, ok := h.chunkOf(p)
	if !ok {
		return &CheckError{Check: BadFree, Addr: p}
	}
	want := h.canary(chunk)
	got, err := h.m.Load64(h.pkru, chunk+8)
	if err != nil {
		return fmt.Errorf("alloc: canary read: %w", err)
	}
	if got == want^freedMark {
		return &CheckError{Check: DoubleFree, Addr: p}
	}
	if got != want {
		// The canary alone cannot tell a real chunk with a smashed
		// header from an interior/garbage pointer. Walk the region's
		// chunk chain (kernel-side, error path only) to decide: a true
		// chunk start means corruption (seed semantics — the live map
		// knew it was an allocation), anything else is an invalid free.
		if h.isChunkStart(chunk) {
			return &CheckError{Check: HeaderCanary, Addr: chunk, Got: got, Want: want}
		}
		return &CheckError{Check: NotAllocation, Addr: p}
	}
	size, err := h.m.Load64(h.pkru, chunk)
	if err != nil {
		return fmt.Errorf("alloc: size read: %w", err)
	}
	c, ok := classFor(int(size))
	if !ok {
		// The size field was overwritten: the header itself is corrupt.
		return &CheckError{Check: SizeField, Addr: chunk, Got: size}
	}
	rz, err := h.m.Load64(h.pkru, p+mem.Addr(ClassSize(c)))
	if err != nil {
		return fmt.Errorf("alloc: redzone read: %w", err)
	}
	if rz != want {
		return &CheckError{Check: Redzone, Addr: p + mem.Addr(ClassSize(c)), Got: rz, Want: want}
	}
	// Mark the header freed. Kernel-side metadata write: no virtual cost,
	// matching the seed's host-side map delete.
	if err := h.m.Poke64(chunk+8, want^freedMark); err != nil {
		return fmt.Errorf("alloc: freed marker: %w", err)
	}
	h.free[c] = append(h.free[c], chunk)
	h.liveChunks--
	if size <= h.allocated {
		h.allocated -= size
	} else {
		h.allocated = 0
	}
	h.totalFree++
	return nil
}

// UsableSize returns the payload capacity of the allocation at p.
func (h *Heap) UsableSize(p mem.Addr) (int, error) {
	chunk, ok := h.chunkOf(p)
	if !ok {
		return 0, &CheckError{Check: BadFree, Addr: p}
	}
	got, err := h.m.Peek64(chunk + 8)
	if err != nil {
		return 0, fmt.Errorf("alloc: canary read: %w", err)
	}
	if got != h.canary(chunk) {
		return 0, &CheckError{Check: BadFree, Addr: p}
	}
	size, err := h.m.Peek64(chunk)
	if err != nil {
		return 0, fmt.Errorf("alloc: size read: %w", err)
	}
	c, ok := classFor(int(size))
	if !ok {
		return 0, &CheckError{Check: SizeField, Addr: chunk, Got: size}
	}
	return ClassSize(c), nil
}

// CheckIntegrity walks every chunk in bump order and validates canaries,
// returning the first corruption found (in address order, so the report
// is deterministic — the former live-map sweep visited chunks in random
// order). Live chunks get the full charged canary + redzone validation
// the seed performed; freed chunks are checked against their freed
// marker via kernel-side peeks, which detects use-after-free header
// smashes at no extra virtual cost. This is the heap-integrity probe
// SDRaD runs when a domain exits cleanly.
func (h *Heap) CheckIntegrity() error {
	for ri := range h.regions {
		r := &h.regions[ri]
		for off := uint64(0); off < r.used; {
			chunk := r.base + mem.Addr(off)
			size, err := h.m.Peek64(chunk)
			if err != nil {
				return fmt.Errorf("alloc: sweep header read: %w", err)
			}
			c, ok := classFor(int(size))
			if !ok {
				return &CheckError{Check: SizeField, Addr: chunk, Got: size}
			}
			got, err := h.m.Peek64(chunk + 8)
			if err != nil {
				return fmt.Errorf("alloc: sweep canary read: %w", err)
			}
			want := h.canary(chunk)
			switch got {
			case want:
				// Live: the charged canary + redzone validation.
				if err := h.checkChunk(chunk+headerSize, c); err != nil {
					return err
				}
			case want ^ freedMark:
				// Freed: the marker proves the canary word, and the
				// redzone (left holding the live canary by Free) must sit
				// where the header's size says — otherwise the size field
				// was overwritten after the free, which would desync this
				// walk and let it skip later chunks. Kernel-side peek: no
				// charged traffic for freed chunks, matching the seed.
				rz, err := h.m.Peek64(chunk + headerSize + mem.Addr(ClassSize(c)))
				if err != nil {
					return fmt.Errorf("alloc: sweep redzone read: %w", err)
				}
				if rz != want {
					return &CheckError{Check: FreedSize, Addr: chunk, Got: rz, Want: want}
				}
			default:
				return &CheckError{Check: HeaderCanary, Addr: chunk, Got: got, Want: want}
			}
			off += uint64(ClassSize(c)) + Overhead
		}
	}
	return nil
}

// reset clears the allocator's bookkeeping (free lists, bump offsets,
// counters) without touching page contents.
func (h *Heap) reset() {
	for i := range h.free {
		h.free[i] = h.free[i][:0]
	}
	h.liveChunks = 0
	h.allocated = 0
	for i := range h.regions {
		h.regions[i].used = 0
	}
}

// Reset discards every allocation without individual frees and zeroes the
// heap pages. This is the "discard" half of secure rewind: the domain's
// heap returns to a pristine state, with no dependence on live object
// count. The page scrub is dirty-page-bounded on the host (mem.Zero
// skips pages that are already all-zero) while still charging the full
// per-page virtual cost.
func (h *Heap) Reset() error {
	h.reset()
	for i := range h.regions {
		r := &h.regions[i]
		if err := h.m.Zero(r.base, r.npages); err != nil {
			return fmt.Errorf("alloc: reset: %w", err)
		}
	}
	return nil
}

// ResetNoZero discards every allocation like Reset but skips the page
// scrub. Rewind becomes O(1) in heap size at the cost of leaving stale
// (possibly attacker-written) bytes in the pages; fresh allocations still
// zero their payloads, so this is safe for integrity though not for
// confidentiality of discarded data. This is the "fast discard" ablation
// called out in DESIGN.md §5.
func (h *Heap) ResetNoZero() error {
	h.reset()
	return nil
}

// Release unmaps all heap pages. The heap must not be used afterwards.
func (h *Heap) Release() error {
	for _, r := range h.regions {
		if err := h.m.Unmap(r.base, r.npages); err != nil {
			return fmt.Errorf("alloc: release: %w", err)
		}
	}
	h.regions = nil
	h.liveChunks = 0
	return nil
}

// Stats reports allocator statistics.
type Stats struct {
	LiveChunks  int
	LiveBytes   uint64
	PeakBytes   uint64
	TotalAllocs uint64
	TotalFrees  uint64
	HeapPages   int
}

// Stats returns a snapshot of allocator statistics.
func (h *Heap) Stats() Stats {
	pages := 0
	for _, r := range h.regions {
		pages += r.npages
	}
	return Stats{
		LiveChunks:  h.liveChunks,
		LiveBytes:   h.allocated,
		PeakBytes:   h.peak,
		TotalAllocs: h.totalAlloc,
		TotalFrees:  h.totalFree,
		HeapPages:   pages,
	}
}
