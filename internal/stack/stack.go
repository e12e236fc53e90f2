// Package stack implements per-domain execution stacks for the SDRaD
// reproduction.
//
// Each SDRaD domain runs on its own stack, allocated from pages tagged
// with the domain's protection key and protected below by a guard page.
// Call frames carry stack canaries (the -fstack-protector mechanism the
// paper lists among its pre-existing detectors): a canary word is placed
// at the top of each frame when it is pushed and validated when the frame
// is popped. A smashed canary is reported as ErrStackSmash, which SDRaD
// treats as a domain violation triggering secure rewind.
//
// The push/pop canary traffic rides the memory subsystem's software-TLB
// fast path: frames cluster on the top stack pages, so repeat pushes hit
// cached translations, while the ProtNone guard page below can never be
// TLB-resident (only successful accesses are cached) — a stack overflow
// always takes the slow-path walk and faults exactly as before.
package stack

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/pku"
)

// Sentinel errors.
var (
	// ErrStackSmash is returned when a frame canary has been overwritten.
	ErrStackSmash = errors.New("stack: smashing detected")
	// ErrStackOverflow is returned when a push would cross into the guard
	// page.
	ErrStackOverflow = errors.New("stack: overflow")
	// ErrBadFrame is returned when frames are popped out of order.
	ErrBadFrame = errors.New("stack: frame mismatch")
)

const canarySize = 8

// Stack is a downward-growing domain stack with a low guard page.
// Create with New; not safe for concurrent use.
type Stack struct {
	m      *mem.Memory
	key    pku.Key
	pkru   pku.PKRU
	guard  mem.Addr // base of the guard page
	bottom mem.Addr // lowest usable address (guard + PageSize)
	top    mem.Addr // highest usable address + 1
	sp     mem.Addr
	secret uint64
	frames []frame
}

type frame struct {
	base mem.Addr // address of the canary word (top of frame)
	sp   mem.Addr // sp value to restore on pop
}

// New maps a stack of npages usable pages (plus one guard page below)
// tagged with the domain key.
func New(m *mem.Memory, key pku.Key, npages int, secret uint64) (*Stack, error) {
	if npages <= 0 {
		return nil, fmt.Errorf("stack: %w: %d pages", mem.ErrBadRange, npages)
	}
	if secret == 0 {
		secret = 0xfe57_ca4a_12d0_0d1e ^ uint64(key)<<48
	}
	base, err := m.Map(npages+1, mem.ProtRW, key)
	if err != nil {
		return nil, fmt.Errorf("stack: map: %w", err)
	}
	// The lowest page is the guard page.
	if err := m.Protect(base, 1, mem.ProtNone); err != nil {
		return nil, fmt.Errorf("stack: guard: %w", err)
	}
	s := &Stack{
		m:      m,
		key:    key,
		pkru:   pku.OnlyKeys(pku.DefaultKey, key),
		guard:  base,
		bottom: base + mem.PageSize,
		top:    base + mem.Addr(npages+1)*mem.PageSize,
		secret: secret,
	}
	s.sp = s.top
	return s, nil
}

// Remaining returns the bytes of stack space left before the guard page.
func (s *Stack) Remaining() int { return int(s.sp - s.bottom) }

func (s *Stack) canary(at mem.Addr) uint64 {
	x := uint64(at) ^ s.secret
	x ^= x << 7
	x ^= x >> 9
	if x == 0 {
		x = s.secret | 1
	}
	return x
}

// Frame identifies a pushed call frame.
type Frame struct {
	// Base is the lowest address of the frame's local storage.
	Base mem.Addr
	// Size is the usable local storage size in bytes.
	Size int

	canaryAt mem.Addr
}

// Push allocates a call frame of size bytes of local storage, placing a
// canary word above the locals (between this frame's locals and the
// caller's frame, where a linear overflow of a local buffer lands first).
func (s *Stack) Push(size int) (Frame, error) {
	if size < 0 {
		return Frame{}, fmt.Errorf("stack: %w: negative frame", mem.ErrBadRange)
	}
	need := mem.Addr(size + canarySize)
	if s.sp < s.bottom+need {
		return Frame{}, fmt.Errorf("%w: need %d bytes, %d remaining", ErrStackOverflow, need, s.Remaining())
	}
	oldSP := s.sp
	canaryAt := s.sp - canarySize
	if err := s.m.Store64(s.pkru, canaryAt, s.canary(canaryAt)); err != nil {
		return Frame{}, fmt.Errorf("stack: canary store: %w", err)
	}
	s.sp -= need
	fr := Frame{Base: s.sp, Size: size, canaryAt: canaryAt}
	s.frames = append(s.frames, frame{base: canaryAt, sp: oldSP})
	return fr, nil
}

// smashError reports a clobbered frame canary. It renders its text only
// when Error is called, so a detection costs one allocation.
type smashError struct {
	// At is the canary word's address.
	At mem.Addr
}

// Error implements error, with the text of
// fmt.Errorf("%w: canary at %#x clobbered", ErrStackSmash, At).
func (e *smashError) Error() string {
	var at [16]byte
	return ErrStackSmash.Error() + ": canary at 0x" + string(strconv.AppendUint(at[:0], uint64(e.At), 16)) + " clobbered"
}

// Unwrap returns ErrStackSmash.
func (e *smashError) Unwrap() error { return ErrStackSmash }

// Pop validates the frame's canary and releases it. Frames must pop in
// LIFO order.
func (s *Stack) Pop(fr Frame) error {
	if len(s.frames) == 0 {
		return fmt.Errorf("%w: pop of empty stack", ErrBadFrame)
	}
	top := s.frames[len(s.frames)-1]
	if top.base != fr.canaryAt {
		return fmt.Errorf("%w: pop of non-top frame", ErrBadFrame)
	}
	got, err := s.m.Load64(s.pkru, fr.canaryAt)
	if err != nil {
		return fmt.Errorf("stack: canary load: %w", err)
	}
	if got != s.canary(fr.canaryAt) {
		return &smashError{At: fr.canaryAt}
	}
	s.frames = s.frames[:len(s.frames)-1]
	s.sp = top.sp
	return nil
}

// Snapshot captures the stack pointer and frame depth for later rewind.
type Snapshot struct {
	sp     mem.Addr
	nframe int
}

// Snapshot returns a restore point at the current stack state.
func (s *Stack) Snapshot() Snapshot {
	return Snapshot{sp: s.sp, nframe: len(s.frames)}
}

// Rewind discards all frames pushed since the snapshot and restores the
// stack pointer, without validating canaries (the frames being discarded
// may be arbitrarily corrupted — that is the point of rewinding).
func (s *Stack) Rewind(snap Snapshot) error {
	if snap.nframe > len(s.frames) || snap.sp < s.sp {
		return fmt.Errorf("%w: snapshot is newer than current state", ErrBadFrame)
	}
	s.frames = s.frames[:snap.nframe]
	s.sp = snap.sp
	return nil
}

// Release unmaps the stack pages (guard included).
func (s *Stack) Release() error {
	npages := int((s.top - s.guard) / mem.PageSize)
	if err := s.m.Unmap(s.guard, npages); err != nil {
		return fmt.Errorf("stack: release: %w", err)
	}
	s.frames = nil
	return nil
}
