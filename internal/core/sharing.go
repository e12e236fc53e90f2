package core

import (
	"errors"
	"fmt"

	"repro/internal/alloc"
	"repro/internal/pku"
	"repro/internal/trace"
)

// This file implements the data-passing extensions of the SDRaD design:
//
//   - Read-only sharing: a domain can be granted read (but not write)
//     access to another domain's protection key — the PKU Write-Disable
//     bit makes this a pure register configuration, with no page copies.
//     SDRaD uses this for "protecting application integrity" setups
//     where workers may read shared configuration owned by the root.
//
//   - Heap adoption: when a domain exits for good, its heap pages can be
//     re-tagged to the default key and adopted by the trusted runtime
//     (sdrad_deinit with the keep-heap option). Results computed in the
//     domain become root-accessible without copying — pkey_mprotect is
//     per-page metadata, not data movement.
//
//   - Quarantine: a per-domain violation budget after which the runtime
//     refuses to re-enter the domain. The paper's service scenario bans
//     clients whose connections keep faulting; quarantine is the
//     mechanism end of that policy.

// ErrQuarantined is returned by Enter for domains that exceeded their
// violation budget.
var ErrQuarantined = errors.New("sdrad: domain quarantined")

// GrantRead gives domain viewer read-only access to the pages of domain
// owner. Writes by the viewer to the owner's pages still fault (PKU WD
// semantics). Either UDI may be RootUDI only for owner (the root's pages
// are key 0, which every domain can already read).
func (s *System) GrantRead(viewer, owner UDI) error {
	v, ok := s.domains[viewer]
	if !ok {
		return fmt.Errorf("%w: viewer UDI %d", ErrNoDomain, viewer)
	}
	o, ok := s.domains[owner]
	if !ok {
		return fmt.Errorf("%w: owner UDI %d", ErrNoDomain, owner)
	}
	if viewer == owner {
		return fmt.Errorf("sdrad: domain %d cannot share with itself", viewer)
	}
	if v.readKeys == nil {
		v.readKeys = make(map[pku.Key]bool)
	}
	v.readKeys[o.key] = true
	s.refreshPKRU(v)
	if s.tracing() {
		s.emit(trace.KindGrant, viewer, fmt.Sprintf("owner=%d", owner))
	}
	return nil
}

// RevokeRead removes a read grant previously installed with GrantRead.
func (s *System) RevokeRead(viewer, owner UDI) error {
	v, ok := s.domains[viewer]
	if !ok {
		return fmt.Errorf("%w: viewer UDI %d", ErrNoDomain, viewer)
	}
	o, ok := s.domains[owner]
	if !ok {
		return fmt.Errorf("%w: owner UDI %d", ErrNoDomain, owner)
	}
	delete(v.readKeys, o.key)
	s.refreshPKRU(v)
	if s.tracing() {
		s.emit(trace.KindRevoke, viewer, fmt.Sprintf("owner=%d", owner))
	}
	return nil
}

// refreshPKRU recomputes the domain's cached register value and
// reinstalls it if d is currently the innermost active domain, so grants
// take effect immediately (a WRPKRU on real hardware).
func (s *System) refreshPKRU(d *Domain) {
	d.pkru = pkruFor(d)
	if s.current() == d {
		s.pkru = d.pkru
		s.clock.Advance(s.cfg.Cost.WRPKRU)
	}
}

// SetViolationBudget quarantines the domain after max violations
// (max <= 0 means unlimited, the default).
func (s *System) SetViolationBudget(udi UDI, max int) error {
	d, ok := s.domains[udi]
	if !ok {
		return fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	d.maxViolations = max
	return nil
}

// Quarantined reports whether the domain has exhausted its violation
// budget.
func (s *System) Quarantined(udi UDI) (bool, error) {
	d, ok := s.domains[udi]
	if !ok {
		return false, fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	return d.quarantined(), nil
}

func (d *Domain) quarantined() bool {
	return d.maxViolations > 0 && d.stats.Violations >= uint64(d.maxViolations)
}

// AdoptHeap deinitializes domain udi but keeps its heap: every heap page
// is re-tagged to the root-protected key (pkey_mprotect — no data
// copies) and the heap handle is returned for trusted-side use. Child
// domains cannot touch adopted pages. The domain's stack is released and
// its protection key freed. This is the zero-copy result path of
// sdrad_deinit's keep-heap option.
func (s *System) AdoptHeap(udi UDI) (*alloc.Heap, error) {
	d, ok := s.domains[udi]
	if !ok {
		return nil, fmt.Errorf("%w: UDI %d", ErrNoDomain, udi)
	}
	for _, a := range s.active {
		if a == d {
			return nil, fmt.Errorf("%w: UDI %d", ErrDomainActive, udi)
		}
	}
	for _, r := range d.heap.Regions() {
		if err := s.mem.TagKey(r.Base, r.NPages, s.rootKey); err != nil {
			return nil, fmt.Errorf("sdrad: adopt heap of %d: %w", udi, err)
		}
	}
	if err := d.heap.Rekey(s.rootKey); err != nil {
		return nil, fmt.Errorf("sdrad: adopt heap of %d: %w", udi, err)
	}
	if err := d.stack.Release(); err != nil {
		return nil, fmt.Errorf("sdrad: adopt heap of %d: %w", udi, err)
	}
	if err := s.keys.Free(d.key); err != nil {
		return nil, fmt.Errorf("sdrad: adopt heap of %d: %w", udi, err)
	}
	s.clock.Advance(s.cfg.Cost.PkeyFree)
	delete(s.domains, udi)
	s.emit(trace.KindAdopt, udi, "")
	return d.heap, nil
}
