package core

import (
	"errors"
	"testing"

	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/pku"
)

func TestGrantReadAllowsReadsDeniesWrites(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1) // viewer
	mustDomain(t, s, 2) // owner

	var shared mem.Addr
	if err := s.Enter(2, func(c *DomainCtx) error {
		shared = c.MustAlloc(32)
		c.MustStore(shared, []byte("shared config"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// Before the grant: read faults.
	err := s.Enter(1, func(c *DomainCtx) error {
		buf := make([]byte, 13)
		c.MustLoad(shared, buf)
		return nil
	})
	if v, ok := IsViolation(err); !ok || v.Mechanism != detect.MechDomainViolation {
		t.Fatalf("pre-grant read = %v, want domain violation", err)
	}

	if err := s.GrantRead(1, 2); err != nil {
		t.Fatal(err)
	}

	// After the grant: reads succeed, writes still fault.
	err = s.Enter(1, func(c *DomainCtx) error {
		buf := make([]byte, 13)
		c.MustLoad(shared, buf)
		if string(buf) != "shared config" {
			t.Errorf("read %q", buf)
		}
		// Write attempt must trap.
		c.MustStore(shared, []byte("tampered"))
		return nil
	})
	v, ok := IsViolation(err)
	if !ok || v.Mechanism != detect.MechDomainViolation {
		t.Fatalf("write with read-grant = %v, want domain violation", err)
	}
	// Owner data unchanged.
	got, _ := s.CopyFromDomain(shared, 13)
	if string(got) != "shared config" {
		t.Errorf("owner data = %q", got)
	}
}

func TestRevokeRead(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	mustDomain(t, s, 2)
	var shared mem.Addr
	_ = s.Enter(2, func(c *DomainCtx) error {
		shared = c.MustAlloc(8)
		return nil
	})
	if err := s.GrantRead(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.RevokeRead(1, 2); err != nil {
		t.Fatal(err)
	}
	err := s.Enter(1, func(c *DomainCtx) error {
		buf := make([]byte, 8)
		c.MustLoad(shared, buf)
		return nil
	})
	if _, ok := IsViolation(err); !ok {
		t.Errorf("post-revoke read = %v, want violation", err)
	}
}

func TestGrantReadValidation(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	if err := s.GrantRead(1, 9); !errors.Is(err, ErrNoDomain) {
		t.Errorf("unknown owner = %v", err)
	}
	if err := s.GrantRead(9, 1); !errors.Is(err, ErrNoDomain) {
		t.Errorf("unknown viewer = %v", err)
	}
	if err := s.GrantRead(1, 1); err == nil {
		t.Error("self-grant accepted")
	}
	if err := s.RevokeRead(1, 9); !errors.Is(err, ErrNoDomain) {
		t.Errorf("revoke unknown owner = %v", err)
	}
	if err := s.RevokeRead(9, 1); !errors.Is(err, ErrNoDomain) {
		t.Errorf("revoke unknown viewer = %v", err)
	}
}

func TestGrantTakesEffectWhileActive(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	mustDomain(t, s, 2)
	var shared mem.Addr
	_ = s.Enter(2, func(c *DomainCtx) error {
		shared = c.MustAlloc(8)
		c.MustStore(shared, []byte("now-open"))
		return nil
	})
	// Grant while domain 1 is executing: the register refresh must apply
	// immediately (the runtime performs the WRPKRU).
	err := s.Enter(1, func(c *DomainCtx) error {
		if err := s.GrantRead(1, 2); err != nil {
			return err
		}
		buf := make([]byte, 8)
		c.MustLoad(shared, buf)
		if string(buf) != "now-open" {
			t.Errorf("read %q", buf)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Enter: %v", err)
	}
}

func TestQuarantineAfterBudget(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	if err := s.SetViolationBudget(1, 3); err != nil {
		t.Fatal(err)
	}
	crash := func(c *DomainCtx) error {
		c.Violate(errors.New("bug"))
		return nil
	}
	for i := 0; i < 3; i++ {
		if _, ok := IsViolation(s.Enter(1, crash)); !ok {
			t.Fatalf("violation %d not delivered", i)
		}
	}
	q, err := s.Quarantined(1)
	if err != nil || !q {
		t.Fatalf("Quarantined = %v, %v", q, err)
	}
	if err := s.Enter(1, crash); !errors.Is(err, ErrQuarantined) {
		t.Errorf("enter after budget = %v, want ErrQuarantined", err)
	}
	// Unlimited budget clears the quarantine.
	if err := s.SetViolationBudget(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Enter(1, func(*DomainCtx) error { return nil }); err != nil {
		t.Errorf("enter after budget reset: %v", err)
	}
}

func TestQuarantineValidation(t *testing.T) {
	s := newSys(t)
	if err := s.SetViolationBudget(9, 1); !errors.Is(err, ErrNoDomain) {
		t.Errorf("budget on unknown = %v", err)
	}
	if _, err := s.Quarantined(9); !errors.Is(err, ErrNoDomain) {
		t.Errorf("Quarantined unknown = %v", err)
	}
}

func TestAdoptHeapZeroCopy(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	var result mem.Addr
	if err := s.Enter(1, func(c *DomainCtx) error {
		result = c.MustAlloc(64)
		c.MustStore(result, []byte("computed result"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	h, err := s.AdoptHeap(1)
	if err != nil {
		t.Fatal(err)
	}
	// Domain is gone, its key is reusable.
	if _, err := s.Domain(1); !errors.Is(err, ErrNoDomain) {
		t.Error("domain survived adoption")
	}
	// The data is readable at the same address with root rights —
	// nothing was copied.
	buf, err := s.CopyFromDomain(result, 15)
	if err != nil {
		t.Fatalf("read adopted data: %v", err)
	}
	if string(buf) != "computed result" {
		t.Errorf("adopted data = %q", buf)
	}
	// Adopted pages carry the root-protected key: the default-key PKRU of
	// domain code cannot touch them.
	if lerr := s.Mem().LoadBytes(pku.OnlyKeys(pku.DefaultKey), result, make([]byte, 1)); lerr == nil {
		t.Error("default-key rights could read root-protected page")
	}
	// The adopted heap remains a working allocator.
	if _, err := h.Alloc(32); err != nil {
		t.Errorf("alloc on adopted heap: %v", err)
	}
	if err := h.Free(result); err != nil {
		t.Errorf("free adopted allocation: %v", err)
	}
	// The freed key supports a new domain.
	if _, err := s.InitDomain(5, DomainConfig{HeapPages: 1, StackPages: 1}); err != nil {
		t.Errorf("new domain after adoption: %v", err)
	}
}

func TestAdoptHeapValidation(t *testing.T) {
	s := newSys(t)
	if _, err := s.AdoptHeap(9); !errors.Is(err, ErrNoDomain) {
		t.Errorf("adopt unknown = %v", err)
	}
	mustDomain(t, s, 1)
	err := s.Enter(1, func(c *DomainCtx) error {
		_, aerr := s.AdoptHeap(1)
		return aerr
	})
	if !errors.Is(err, ErrDomainActive) {
		t.Errorf("adopt active = %v, want ErrDomainActive", err)
	}
}

func TestReadGrantSurvivesRewind(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	mustDomain(t, s, 2)
	var shared mem.Addr
	_ = s.Enter(2, func(c *DomainCtx) error {
		shared = c.MustAlloc(8)
		c.MustStore(shared, []byte("persists"))
		return nil
	})
	if err := s.GrantRead(1, 2); err != nil {
		t.Fatal(err)
	}
	// Violate and rewind domain 1.
	_ = s.Enter(1, func(c *DomainCtx) error {
		c.Violate(errors.New("bug"))
		return nil
	})
	// The grant is runtime configuration, not domain state: it survives.
	err := s.Enter(1, func(c *DomainCtx) error {
		buf := make([]byte, 8)
		c.MustLoad(shared, buf)
		return nil
	})
	if err != nil {
		t.Errorf("read after rewind: %v", err)
	}
}

// TestAdoptHeapMovesNoBytes proves the zero-copy property: adopting a
// heap full of data performs page-table key updates only — the memory
// traffic counters must not move.
func TestAdoptHeapMovesNoBytes(t *testing.T) {
	s := newSys(t)
	mustDomain(t, s, 1)
	// Fill the domain heap with data.
	if err := s.Enter(1, func(c *DomainCtx) error {
		for i := 0; i < 32; i++ {
			p := c.MustAlloc(1024)
			c.MustStore(p, make([]byte, 1024))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := s.Mem().Stats()
	if _, err := s.AdoptHeap(1); err != nil {
		t.Fatal(err)
	}
	after := s.Mem().Stats()
	if after.BytesRead != before.BytesRead || after.BytesWritten != before.BytesWritten {
		t.Errorf("adoption moved bytes: read %d->%d written %d->%d",
			before.BytesRead, after.BytesRead, before.BytesWritten, after.BytesWritten)
	}
	if after.Loads != before.Loads || after.Stores != before.Stores {
		t.Errorf("adoption performed data accesses: loads %d->%d stores %d->%d",
			before.Loads, after.Loads, before.Stores, after.Stores)
	}
}
