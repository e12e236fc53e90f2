// Package pku implements the semantics of Intel Memory Protection Keys
// for Userspace (PKU) in software.
//
// The real SDRaD library relies on PKU hardware: each page of memory is
// tagged with one of 16 protection keys, and a per-thread PKRU register
// holds two bits per key — Access Disable (AD) and Write Disable (WD).
// Because PKU hardware is unavailable in this environment (and Go's
// scheduler conflicts with per-thread PKRU state), this package
// reproduces the architectural state machine exactly: 16 keys, key 0 as
// the always-allocated default, AD/WD bit semantics, and a userspace key
// allocator mirroring pkey_alloc(2)/pkey_free(2).
package pku

import (
	"errors"
	"fmt"
)

// NumKeys is the number of protection keys provided by the architecture.
const NumKeys = 16

// DefaultKey is protection key 0, which tags all memory not explicitly
// assigned to another key. It is permanently allocated.
const DefaultKey Key = 0

// Key identifies one of the 16 protection keys.
type Key uint8

// Valid reports whether k is an architecturally valid key.
func (k Key) Valid() bool { return k < NumKeys }

// String implements fmt.Stringer.
func (k Key) String() string { return fmt.Sprintf("pkey%d", uint8(k)) }

// PKRU is the protection-key rights register: two bits per key.
// Bit 2k   = AD (access disable: all access to pages tagged k faults).
// Bit 2k+1 = WD (write disable: writes to pages tagged k fault).
// A zero PKRU grants full access to every key.
type PKRU uint32

// PKRU values of note.
const (
	// PKRUAllowAll grants read and write access to every key.
	PKRUAllowAll PKRU = 0
	// PKRUDenyAll disables access to every key, including key 0.
	// (On real hardware this would make the thread unable to run; the
	// simulation permits it for testing fault paths.)
	PKRUDenyAll PKRU = 0x5555_5555
)

func adBit(k Key) PKRU { return 1 << (2 * uint(k)) }
func wdBit(k Key) PKRU { return 1 << (2*uint(k) + 1) }

// CanRead reports whether the register permits reads of pages tagged k.
func (p PKRU) CanRead(k Key) bool { return p&adBit(k) == 0 }

// CanWrite reports whether the register permits writes to pages tagged k.
// Write permission requires both AD and WD clear, matching hardware.
func (p PKRU) CanWrite(k Key) bool { return p&(adBit(k)|wdBit(k)) == 0 }

// WithWriteDisabled returns a copy of p with writes to key k denied.
func (p PKRU) WithWriteDisabled(k Key) PKRU { return p | wdBit(k) }

// WithAllowed returns a copy of p granting full access to key k.
func (p PKRU) WithAllowed(k Key) PKRU { return p &^ (adBit(k) | wdBit(k)) }

// OnlyKeys returns a PKRU that grants full access to exactly the given
// keys (plus nothing else) and denies all access to every other key.
// This is the register value SDRaD installs when entering a domain: the
// domain sees its own key (and, transitively, its parents' keys when
// configured for nested access) and nothing else.
func OnlyKeys(keys ...Key) PKRU {
	p := PKRUDenyAll
	for _, k := range keys {
		p = p.WithAllowed(k)
	}
	return p
}

// String renders the register as a per-key rights list, e.g. "0:rw 1:-- 2:r-".
func (p PKRU) String() string {
	buf := make([]byte, 0, NumKeys*6)
	for k := Key(0); k < NumKeys; k++ {
		if k > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, fmt.Sprintf("%d:", k)...)
		if p.CanRead(k) {
			buf = append(buf, 'r')
		} else {
			buf = append(buf, '-')
		}
		if p.CanWrite(k) {
			buf = append(buf, 'w')
		} else {
			buf = append(buf, '-')
		}
	}
	return string(buf)
}

// ErrNoKeys is returned by Allocator.Alloc when all 15 allocatable keys
// are in use, mirroring pkey_alloc(2) returning ENOSPC.
var ErrNoKeys = errors.New("pku: no protection keys available")

// ErrKeyNotAllocated is returned when freeing or using a key that is not
// currently allocated.
var ErrKeyNotAllocated = errors.New("pku: key not allocated")

// ErrDefaultKey is returned when attempting to free key 0.
var ErrDefaultKey = errors.New("pku: cannot free default key 0")

// Allocator hands out protection keys, mirroring the kernel's per-process
// key bitmap. Key 0 is permanently allocated. The zero value is ready to
// use. Allocator is not safe for concurrent use.
type Allocator struct {
	inUse [NumKeys]bool
	init  bool
}

func (a *Allocator) lazyInit() {
	if !a.init {
		a.inUse[DefaultKey] = true
		a.init = true
	}
}

// Alloc returns the lowest free key, or ErrNoKeys if none remain.
func (a *Allocator) Alloc() (Key, error) {
	a.lazyInit()
	for k := Key(1); k < NumKeys; k++ {
		if !a.inUse[k] {
			a.inUse[k] = true
			return k, nil
		}
	}
	return 0, ErrNoKeys
}

// Free releases a previously allocated key.
func (a *Allocator) Free(k Key) error {
	a.lazyInit()
	if k == DefaultKey {
		return ErrDefaultKey
	}
	if !k.Valid() || !a.inUse[k] {
		return fmt.Errorf("%w: %v", ErrKeyNotAllocated, k)
	}
	a.inUse[k] = false
	return nil
}
