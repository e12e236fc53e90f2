package fault

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mem"
	"repro/internal/workload"
)

// TestSystemConsistencyUnderRandomOps drives a random interleaving of
// domain operations — creates, enters with benign work, injected attacks,
// deinits — and checks the global invariants afterwards: no leaked pages,
// no leaked keys, accurate violation accounting, and a usable system.
func TestSystemConsistencyUnderRandomOps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := workload.NewRNG(seed)
		s := core.NewSystem(core.DefaultConfig())
		attacks := workload.NewRNG(seed)
		ks := kinds()

		live := map[core.UDI]bool{}
		var expectedViolations uint64
		nextUDI := core.UDI(1)

		for op := 0; op < 120; op++ {
			switch rng.Intn(5) {
			case 0: // create
				if len(live) >= 10 {
					continue
				}
				udi := nextUDI
				nextUDI++
				if _, err := s.InitDomain(udi, core.DomainConfig{HeapPages: 2, StackPages: 2}); err != nil {
					return false
				}
				live[udi] = true
			case 1, 2: // benign work
				udi := pick(rng, live)
				if udi == 0 {
					continue
				}
				err := s.Enter(udi, func(c *core.DomainCtx) error {
					p := c.MustAlloc(rng.Intn(256) + 1)
					c.MustStore(p, []byte{1, 2, 3})
					c.MustFree(p)
					return nil
				})
				if err != nil {
					return false
				}
			case 3: // attack
				udi := pick(rng, live)
				if udi == 0 {
					continue
				}
				kind := ks[attacks.Intn(len(ks))]
				err := s.Enter(udi, func(c *core.DomainCtx) error {
					Inject(c, kind, 0)
					return nil
				})
				if _, ok := core.IsViolation(err); !ok {
					return false
				}
				expectedViolations++
			case 4: // deinit
				udi := pick(rng, live)
				if udi == 0 {
					continue
				}
				if err := s.DeinitDomain(udi); err != nil {
					return false
				}
				delete(live, udi)
			}
		}

		// Accounting invariant.
		var got uint64
		for udi := range live {
			d, err := s.Domain(udi)
			if err != nil {
				return false
			}
			got += d.Stats().Violations
		}
		// Violations of deinited domains are gone from per-domain stats but
		// stay in the global counters.
		var total uint64
		for m := detect.MechDomainViolation; m <= detect.MechSegfault; m++ {
			total += s.Counters().Count(m)
		}
		if total != expectedViolations {
			return false
		}
		_ = got

		// Teardown invariant: removing every domain frees every page.
		for udi := range live {
			if err := s.DeinitDomain(udi); err != nil {
				return false
			}
		}
		if s.Mem().MappedPages() != 0 {
			return false
		}
		// All 14 keys are available again.
		for i := 0; i < 14; i++ {
			if _, err := s.CreateDomain(core.DomainConfig{HeapPages: 1, StackPages: 1}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func pick(rng *workload.RNG, live map[core.UDI]bool) core.UDI {
	if len(live) == 0 {
		return 0
	}
	n := rng.Intn(len(live))
	for udi := range live {
		if n == 0 {
			return udi
		}
		n--
	}
	return 0
}

// TestDomainDataIsolationProperty: data written by one domain is never
// observable or corruptible from a sibling, across random work orders.
func TestDomainDataIsolationProperty(t *testing.T) {
	f := func(seed uint64, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{0xaa}
		}
		if len(payload) > 1024 {
			payload = payload[:1024]
		}
		s := core.NewSystem(core.DefaultConfig())
		if _, err := s.InitDomain(1, core.DomainConfig{}); err != nil {
			return false
		}
		if _, err := s.InitDomain(2, core.DomainConfig{}); err != nil {
			return false
		}
		var addr mem.Addr
		if err := s.Enter(1, func(c *core.DomainCtx) error {
			addr = c.MustAlloc(len(payload))
			c.MustStore(addr, payload)
			return nil
		}); err != nil {
			return false
		}
		// Sibling read and write must both violate.
		rerr := s.Enter(2, func(c *core.DomainCtx) error {
			buf := make([]byte, len(payload))
			c.MustLoad(addr, buf)
			return nil
		})
		werr := s.Enter(2, func(c *core.DomainCtx) error {
			c.MustStore(addr, make([]byte, len(payload)))
			return nil
		})
		if _, ok := core.IsViolation(rerr); !ok {
			return false
		}
		if _, ok := core.IsViolation(werr); !ok {
			return false
		}
		// Data unchanged.
		got, err := s.CopyFromDomain(addr, len(payload))
		if err != nil {
			return false
		}
		for i := range payload {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRewindAlwaysRestoresEntryState: whatever a domain does before
// violating, the next entry sees a pristine heap.
func TestRewindAlwaysRestoresEntryState(t *testing.T) {
	f := func(allocs []uint16, kindRaw uint8) bool {
		s := core.NewSystem(core.DefaultConfig())
		if _, err := s.InitDomain(1, core.DomainConfig{}); err != nil {
			return false
		}
		ks := kinds()
		kind := ks[int(kindRaw)%len(ks)]
		err := s.Enter(1, func(c *core.DomainCtx) error {
			for _, a := range allocs {
				n := int(a)%512 + 1
				p := c.MustAlloc(n)
				c.MustStore(p, make([]byte, n))
			}
			Inject(c, kind, 0)
			return nil
		})
		if _, ok := core.IsViolation(err); !ok {
			return false
		}
		d, derr := s.Domain(1)
		if derr != nil {
			return false
		}
		st := d.Heap().Stats()
		return st.LiveChunks == 0 && st.LiveBytes == 0 && d.Heap().CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestErrorsAreDistinguishable(t *testing.T) {
	// The public error taxonomy: sentinel errors never alias.
	sentinels := []error{core.ErrDomainExists, core.ErrNoDomain, core.ErrDomainActive, core.ErrQuarantined}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Errorf("sentinel %v aliases %v", a, b)
			}
		}
	}
}
