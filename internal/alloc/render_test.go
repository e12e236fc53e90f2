package alloc_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mem"
)

// TestCheckErrorRendering: every typed heap detection renders the text
// its site formatted with fmt before the errors became typed, alone and
// wrapped in a *core.ViolationError; it unwraps to its sentinel, and
// classifies as it did. The fmt format strings are the oracle.
func TestCheckErrorRendering(t *testing.T) {
	type oracle func(addr mem.Addr, got, want uint64) string
	hc, bf := alloc.ErrHeapCorruption, alloc.ErrBadFree
	sites := []struct {
		check    alloc.Check
		sentinel error
		mech     detect.Mechanism
		fmt      oracle
	}{
		{alloc.HeaderCanary, hc, detect.MechHeapCanary, func(a mem.Addr, got, want uint64) string {
			return fmt.Errorf("%w: header canary at %#x (got %#x want %#x)", hc, uint64(a), got, want).Error()
		}},
		{alloc.Redzone, hc, detect.MechHeapCanary, func(a mem.Addr, got, want uint64) string {
			return fmt.Errorf("%w: redzone at %#x (got %#x want %#x)", hc, uint64(a), got, want).Error()
		}},
		{alloc.SizeField, hc, detect.MechHeapCanary, func(a mem.Addr, got, _ uint64) string {
			return fmt.Errorf("%w: size field at %#x smashed (%d)", hc, uint64(a), got).Error()
		}},
		{alloc.FreedHeader, hc, detect.MechHeapCanary, func(a mem.Addr, got, want uint64) string {
			return fmt.Errorf("%w: freed chunk header at %#x smashed (got %#x want %#x)", hc, uint64(a), got, want).Error()
		}},
		{alloc.FreedRedzone, hc, detect.MechHeapCanary, func(a mem.Addr, got, want uint64) string {
			return fmt.Errorf("%w: freed chunk redzone at %#x smashed (got %#x want %#x)", hc, uint64(a), got, want).Error()
		}},
		{alloc.FreedSize, hc, detect.MechHeapCanary, func(a mem.Addr, got, want uint64) string {
			return fmt.Errorf("%w: freed chunk at %#x size/redzone mismatch (redzone %#x want %#x)", hc, uint64(a), got, want).Error()
		}},
		{alloc.DoubleFree, bf, detect.MechNone, func(a mem.Addr, _, _ uint64) string {
			return fmt.Errorf("%w: double free of %#x", bf, uint64(a)).Error()
		}},
		{alloc.NotAllocation, bf, detect.MechNone, func(a mem.Addr, _, _ uint64) string {
			return fmt.Errorf("%w: %#x is not an allocation", bf, uint64(a)).Error()
		}},
		{alloc.BadFree, bf, detect.MechNone, func(a mem.Addr, _, _ uint64) string {
			return fmt.Errorf("%w: %#x", bf, uint64(a)).Error()
		}},
	}
	words := []struct {
		addr      mem.Addr
		got, want uint64
	}{
		{0, 0, 0},
		{0x5f0c8, 0x4141414141414141, 0x916bb71829dd6951},
		{math.MaxUint64, math.MaxUint64, 1},
	}
	for _, site := range sites {
		for _, w := range words {
			ce := &alloc.CheckError{Check: site.check, Addr: w.addr, Got: w.got, Want: w.want}
			want := site.fmt(w.addr, w.got, w.want)
			if got := ce.Error(); got != want {
				t.Errorf("check %d renders %q, want %q", site.check, got, want)
			}
			if !errors.Is(ce, site.sentinel) {
				t.Errorf("check %d does not unwrap to %v", site.check, site.sentinel)
			}
			mech := detect.Classify(ce)
			if mech != site.mech {
				t.Errorf("check %d classifies as %v, want %v", site.check, mech, site.mech)
			}
			for _, udi := range []core.UDI{1, 12, -3} {
				v := &core.ViolationError{UDI: udi, Mechanism: mech, Cause: ce}
				if got, want := v.Error(), fmt.Sprintf("sdrad: domain %d violation (%s): %v", udi, mech, want); got != want {
					t.Errorf("violation renders %q, want %q", got, want)
				}
			}
		}
	}
	// A violation without a cause renders fmt's nil operand.
	v := &core.ViolationError{UDI: 2, Mechanism: detect.MechSegfault}
	if got, want := v.Error(), fmt.Sprintf("sdrad: domain %d violation (%s): %v", 2, detect.MechSegfault, nil); got != want {
		t.Errorf("causeless violation renders %q, want %q", got, want)
	}
}
