package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mem"
)

func newSys(t *testing.T) *core.System {
	t.Helper()
	s := core.NewSystem(core.DefaultConfig())
	if _, err := s.InitDomain(1, core.DomainConfig{}); err != nil {
		t.Fatal(err)
	}
	return s
}

// kinds lists every bug class.
func kinds() []Kind {
	var ks []Kind
	for k := HeapOverflow; k <= Crash; k++ {
		ks = append(ks, k)
	}
	return ks
}

func TestEveryKindIsDetectedAndRewound(t *testing.T) {
	// Allowed mechanisms per kind. OOBRead may land on unmapped space or
	// on a guard page depending on heap layout — both are valid
	// detections of the same bug.
	expected := map[Kind][]detect.Mechanism{
		HeapOverflow:     {detect.MechHeapCanary},
		StackSmash:       {detect.MechStackCanary},
		WildWrite:        {detect.MechSegfault},
		OOBRead:          {detect.MechSegfault, detect.MechGuardPage},
		CrossDomainWrite: {detect.MechDomainViolation},
		DoubleFree:       {detect.MechSegfault}, // a refused free is no substrate detection: generic
		NullDeref:        {detect.MechSegfault},
		UseAfterFree:     {detect.MechHeapCanary},
		FreedHeaderSmash: {detect.MechHeapCanary},
		Crash:            {detect.MechSegfault}, // in-domain panic counts as crash-class
	}
	for _, k := range kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			s := newSys(t)
			// Provide a real foreign victim for the cross-domain attack.
			if _, err := s.InitDomain(2, core.DomainConfig{}); err != nil {
				t.Fatal(err)
			}
			var victim mem.Addr
			if err := s.Enter(2, func(c *core.DomainCtx) error {
				victim = c.MustAlloc(16)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			err := s.Enter(1, func(c *core.DomainCtx) error {
				Inject(c, k, victim)
				return nil
			})
			v, ok := core.IsViolation(err)
			if !ok {
				t.Fatalf("%v: err = %v, want violation", k, err)
			}
			found := false
			for _, want := range expected[k] {
				if v.Mechanism == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%v: mechanism = %v, want one of %v", k, v.Mechanism, expected[k])
			}
			// The domain must be reusable after the attack.
			if err := s.Enter(1, func(c *core.DomainCtx) error {
				p := c.MustAlloc(16)
				c.MustStore(p, []byte("ok"))
				return nil
			}); err != nil {
				t.Errorf("%v: domain unusable after rewind: %v", k, err)
			}
		})
	}
}

func TestCrossDomainWriteHitsVictim(t *testing.T) {
	s := newSys(t)
	if _, err := s.InitDomain(2, core.DomainConfig{}); err != nil {
		t.Fatal(err)
	}
	var victim mem.Addr
	if err := s.Enter(2, func(c *core.DomainCtx) error {
		victim = c.MustAlloc(32)
		c.MustStore(victim, []byte("victim data"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := s.Enter(1, func(c *core.DomainCtx) error {
		Inject(c, CrossDomainWrite, victim)
		return nil
	})
	v, ok := core.IsViolation(err)
	if !ok || v.Mechanism != detect.MechDomainViolation {
		t.Fatalf("err = %v, want domain violation", err)
	}
	// Victim data intact.
	got, err := s.CopyFromDomain(victim, 11)
	if err != nil || string(got) != "victim data" {
		t.Errorf("victim = %q, %v", got, err)
	}
}

func TestInjectUnknownKind(t *testing.T) {
	s := newSys(t)
	err := s.Enter(1, func(c *core.DomainCtx) error {
		Inject(c, Kind(99), 0)
		return nil
	})
	if _, ok := core.IsViolation(err); !ok {
		t.Errorf("unknown kind err = %v, want violation", err)
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range kinds() {
		if k.String() == "" {
			t.Errorf("empty string for %d", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind should render")
	}
}

// TestContainmentAllocations pins the host garbage of containing each
// bug class through System.Enter at 2: the *core.ViolationError and its
// typed cause. Detection, the trap, the rewind and classification
// allocate nothing more; rendering the error's text is the caller's
// cost, paid only if it asks.
func TestContainmentAllocations(t *testing.T) {
	for _, k := range kinds() {
		s := newSys(t)
		if _, err := s.InitDomain(2, core.DomainConfig{}); err != nil {
			t.Fatal(err)
		}
		var victim mem.Addr
		if err := s.Enter(2, func(c *core.DomainCtx) error {
			victim = c.MustAlloc(16)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		attack := func(c *core.DomainCtx) error {
			Inject(c, k, victim)
			return nil
		}
		contain := func() {
			if _, ok := core.IsViolation(s.Enter(1, attack)); !ok {
				t.Fatalf("%v: not contained", k)
			}
		}
		contain() // map the pages the attack and its rewind touch
		if allocs := testing.AllocsPerRun(50, contain); allocs > 2 {
			t.Errorf("%v: containing the attack allocates %v times, want at most 2", k, allocs)
		}
	}
}
