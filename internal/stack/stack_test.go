package stack

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/pku"
)

func newStack(t *testing.T) (*Stack, *mem.Memory) {
	t.Helper()
	m := mem.New(nil)
	s, err := New(m, pku.Key(2), 4, 0)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s, m
}

func TestPushPop(t *testing.T) {
	s, m := newStack(t)
	top := s.sp
	fr, err := s.Push(128)
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	if fr.Size != 128 {
		t.Errorf("frame size = %d", fr.Size)
	}
	if len(s.frames) != 1 {
		t.Errorf("Depth = %d, want 1", len(s.frames))
	}
	// Locals are usable.
	pkru := pku.OnlyKeys(pku.DefaultKey, s.key)
	if err := m.StoreBytes(pkru, fr.Base, make([]byte, 128)); err != nil {
		t.Fatalf("write locals: %v", err)
	}
	if err := s.Pop(fr); err != nil {
		t.Fatalf("Pop: %v", err)
	}
	if s.sp != top || len(s.frames) != 0 {
		t.Errorf("state after pop: sp=%#x depth=%d", uint64(s.sp), len(s.frames))
	}
}

func TestLinearOverflowSmashesCanary(t *testing.T) {
	s, m := newStack(t)
	fr, _ := s.Push(64)
	pkru := pku.OnlyKeys(pku.DefaultKey, s.key)
	// Overflow a 64-byte local buffer by 8 bytes: hits the canary that
	// sits directly above the locals.
	evil := make([]byte, 72)
	for i := range evil {
		evil[i] = 0x41
	}
	if err := m.StoreBytes(pkru, fr.Base, evil); err != nil {
		t.Fatalf("overflow write: %v", err)
	}
	if err := s.Pop(fr); !errors.Is(err, ErrStackSmash) {
		t.Errorf("Pop = %v, want ErrStackSmash", err)
	}
}

func TestNestedFramesLIFO(t *testing.T) {
	s, _ := newStack(t)
	f1, _ := s.Push(32)
	f2, _ := s.Push(32)
	if err := s.Pop(f1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("out-of-order pop = %v, want ErrBadFrame", err)
	}
	if err := s.Pop(f2); err != nil {
		t.Fatalf("Pop f2: %v", err)
	}
	if err := s.Pop(f1); err != nil {
		t.Fatalf("Pop f1: %v", err)
	}
	if err := s.Pop(f1); !errors.Is(err, ErrBadFrame) {
		t.Errorf("pop of empty = %v, want ErrBadFrame", err)
	}
}

func TestStackOverflowGuard(t *testing.T) {
	s, _ := newStack(t)
	// 4 usable pages = 16384 bytes; a 1-page frame fits, too many don't.
	var err error
	for i := 0; i < 10; i++ {
		if _, err = s.Push(4096); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrStackOverflow) {
		t.Errorf("err = %v, want ErrStackOverflow", err)
	}
}

func TestGuardPageFaultsOnAccess(t *testing.T) {
	s, m := newStack(t)
	pkru := pku.OnlyKeys(pku.DefaultKey, s.key)
	err := m.StoreBytes(pkru, s.guard+100, []byte{0xff})
	f, ok := mem.IsFault(err)
	if !ok || f.Kind != mem.FaultProt {
		t.Errorf("guard write = %v, want FaultProt", err)
	}
}

func TestSnapshotRewind(t *testing.T) {
	s, m := newStack(t)
	f0, _ := s.Push(64)
	snap := s.Snapshot()
	sp0 := s.sp
	// Push frames and smash one — rewind must still succeed.
	fr, _ := s.Push(64)
	_, _ = s.Push(256)
	pkru := pku.OnlyKeys(pku.DefaultKey, s.key)
	_ = m.StoreBytes(pkru, fr.Base, make([]byte, 80)) // smash
	if err := s.Rewind(snap); err != nil {
		t.Fatalf("Rewind: %v", err)
	}
	if s.sp != sp0 || len(s.frames) != 1 {
		t.Errorf("after rewind: sp=%#x depth=%d, want sp=%#x depth=1", uint64(s.sp), len(s.frames), uint64(sp0))
	}
	// The pre-snapshot frame is intact and pops cleanly.
	if err := s.Pop(f0); err != nil {
		t.Errorf("Pop f0 after rewind: %v", err)
	}
}

func TestRewindToNewerSnapshotFails(t *testing.T) {
	s, _ := newStack(t)
	_, _ = s.Push(16)
	snap := s.Snapshot()
	// Unwind below the snapshot, then try to "rewind forward".
	s.frames = nil
	s.sp = s.top
	if err := s.Rewind(snap); !errors.Is(err, ErrBadFrame) {
		t.Errorf("forward rewind = %v, want ErrBadFrame", err)
	}
}

func TestStackPagesCarryKey(t *testing.T) {
	s, m := newStack(t)
	fr, _ := s.Push(16)
	// Foreign PKRU cannot read stack locals.
	err := m.LoadBytes(pku.OnlyKeys(pku.DefaultKey), fr.Base, make([]byte, 1))
	if f, ok := mem.IsFault(err); !ok || f.Kind != mem.FaultPkey {
		t.Errorf("foreign stack read = %v, want FaultPkey", err)
	}
}

func TestRelease(t *testing.T) {
	m := mem.New(nil)
	s, err := New(m, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if m.MappedPages() != 0 {
		t.Errorf("pages leaked: %d", m.MappedPages())
	}
}

func TestBadArgs(t *testing.T) {
	m := mem.New(nil)
	if _, err := New(m, 2, 0, 0); err == nil {
		t.Error("New with 0 pages should fail")
	}
	s, _ := New(m, 2, 2, 0)
	if _, err := s.Push(-1); err == nil {
		t.Error("Push(-1) should fail")
	}
}

// Property: any push/pop-balanced sequence with in-bounds writes leaves
// the stack at its initial SP with zero depth and no false canary trips.
func TestBalancedPushPopProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := mem.New(nil)
		s, err := New(m, 2, 8, 0)
		if err != nil {
			return false
		}
		top := s.sp
		pkru := pku.OnlyKeys(pku.DefaultKey, s.key)
		var frames []Frame
		for _, raw := range sizes {
			size := int(raw)%512 + 1
			fr, err := s.Push(size)
			if err != nil {
				// Overflow is acceptable; stop pushing.
				break
			}
			if m.StoreBytes(pkru, fr.Base, make([]byte, size)) != nil {
				return false
			}
			frames = append(frames, fr)
		}
		for i := len(frames) - 1; i >= 0; i-- {
			if s.Pop(frames[i]) != nil {
				return false
			}
		}
		return s.sp == top && len(s.frames) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGuardPageNeverTLBResident: the memory fast path only caches
// successful translations, so a warm stack working set must not weaken
// the guard page — overflowing into it faults on every attempt, even
// after heavy adjacent traffic.
func TestGuardPageNeverTLBResident(t *testing.T) {
	m := mem.New(nil)
	s, err := New(m, pku.Key(1), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the stack pages: push/pop frames that fill most of the stack.
	for i := 0; i < 50; i++ {
		fr, err := s.Push(1024)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.m.StoreBytes(s.pkru, fr.Base, make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
		if err := s.Pop(fr); err != nil {
			t.Fatal(err)
		}
	}
	// A direct write into the guard page must fault every time.
	for i := 0; i < 3; i++ {
		err := s.m.StoreBytes(s.pkru, s.guard+mem.Addr(i), []byte{0x41})
		f, ok := mem.IsFault(err)
		if !ok || f.Kind != mem.FaultProt {
			t.Fatalf("guard write %d = %v, want FaultProt", i, err)
		}
	}
	// And a Push that would cross into the guard is still refused.
	if _, err := s.Push(s.Remaining() + 1); err == nil {
		t.Fatal("overflowing Push succeeded")
	}
}

// TestSmashErrorRendering: a clobbered canary renders the text its sites
// formatted with fmt before the error became typed, and unwraps to
// ErrStackSmash.
func TestSmashErrorRendering(t *testing.T) {
	for _, at := range []mem.Addr{0, 0x7ff8, 1<<64 - 1} {
		e := &smashError{At: at}
		if got, want := e.Error(), fmt.Errorf("%w: canary at %#x clobbered", ErrStackSmash, uint64(at)).Error(); got != want {
			t.Errorf("renders %q, want %q", got, want)
		}
		if !errors.Is(e, ErrStackSmash) {
			t.Errorf("%v does not unwrap to ErrStackSmash", e)
		}
	}
}
