package core

import (
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// tracedRun drives a seeded mix of clean entries, explicit and PKU
// violations, budget preemptions and read grants through a fresh system
// with tr installed (nil = no tracer), returning the cycles it consumed
// and domain 1's statistics.
func tracedRun(t *testing.T, tr trace.Recorder) (uint64, DomainStats) {
	t.Helper()
	s := newSys(t)
	if tr != nil {
		s.SetTracer(tr)
	}
	d := mustDomain(t, s, 1)
	mustDomain(t, s, 2)
	var secret mem.Addr
	if err := s.Enter(2, func(c *DomainCtx) error {
		secret = c.MustAlloc(16)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(37, 1))
	granted := false
	for i := 0; i < 300; i++ {
		var err error
		switch rng.IntN(5) {
		case 0:
			err = s.Enter(1, func(c *DomainCtx) error {
				p := c.MustAlloc(64)
				c.MustStore(p, make([]byte, 64))
				return c.Free(p)
			})
		case 1:
			err = s.Enter(1, func(c *DomainCtx) error {
				c.Violate(nil)
				return nil
			})
		case 2:
			err = s.Enter(1, func(c *DomainCtx) error {
				c.MustStore(secret, []byte("x"))
				return nil
			})
		case 3:
			err = s.EnterWithBudget(1, 20_000, func(c *DomainCtx) error {
				p := c.MustAlloc(4096)
				buf := make([]byte, 4096)
				for {
					c.MustStore(p, buf)
				}
			})
		case 4:
			if granted {
				err = s.RevokeRead(1, 2)
			} else {
				err = s.GrantRead(1, 2)
			}
			granted = !granted
		}
		if _, ok := IsViolation(err); ok {
			continue
		}
		if _, ok := IsBudget(err); ok {
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return s.Clock().Cycles(), d.Stats()
}

// TestTracerIsInert: installing a tracer changes no virtual cycle. An
// untraced run formats no event detail at all; the traced run's events
// still carry theirs.
func TestTracerIsInert(t *testing.T) {
	plain, plainStats := tracedRun(t, nil)
	ring := trace.NewRing(1 << 12)
	traced, tracedStats := tracedRun(t, ring)
	if plain != traced {
		t.Errorf("cycles: %d untraced, %d traced", plain, traced)
	}
	if plainStats != tracedStats {
		t.Errorf("domain stats: %+v untraced, %+v traced", plainStats, tracedStats)
	}
	if plainStats.Violations == 0 || plainStats.Preemptions == 0 || plainStats.CleanExits == 0 {
		t.Fatalf("the run must mix clean exits, violations and preemptions: %+v", plainStats)
	}
	for _, want := range []struct {
		kind   trace.Kind
		prefix string
	}{
		{trace.KindInit, "key="},
		{trace.KindRewind, "cycles="},
		{trace.KindRewind, "budget="},
		{trace.KindGrant, "owner=2"},
		{trace.KindRevoke, "owner=2"},
	} {
		found := false
		for _, e := range ring.Filter(want.kind) {
			if strings.HasPrefix(e.Detail, want.prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %v event with detail %q...", want.kind, want.prefix)
		}
	}
}
