package detect

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/mem"
	"repro/internal/stack"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Mechanism
	}{
		{"nil", nil, MechNone},
		{"plain error", errors.New("boom"), MechNone},
		{"pkey fault", &mem.Fault{Kind: mem.FaultPkey, Addr: 0x1000}, MechDomainViolation},
		{"prot fault", &mem.Fault{Kind: mem.FaultProt, Addr: 0x2000}, MechGuardPage},
		{"unmapped fault", &mem.Fault{Kind: mem.FaultUnmapped, Addr: 0}, MechSegfault},
		{"wrapped pkey fault", fmt.Errorf("handler: %w", &mem.Fault{Kind: mem.FaultPkey}), MechDomainViolation},
		{"stack smash", stack.ErrStackSmash, MechStackCanary},
		{"wrapped stack smash", fmt.Errorf("pop: %w", stack.ErrStackSmash), MechStackCanary},
		{"heap corruption", alloc.ErrHeapCorruption, MechHeapCanary},
		{"wrapped heap corruption", fmt.Errorf("free: %w", alloc.ErrHeapCorruption), MechHeapCanary},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Errorf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIsViolation(t *testing.T) {
	if IsViolation(nil) {
		t.Error("nil is not a violation")
	}
	if IsViolation(errors.New("app error")) {
		t.Error("plain error is not a violation")
	}
	if !IsViolation(&mem.Fault{Kind: mem.FaultPkey}) {
		t.Error("pkey fault should be a violation")
	}
	if !IsViolation(stack.ErrStackSmash) {
		t.Error("stack smash should be a violation")
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	for _, err := range []error{
		&mem.Fault{Kind: mem.FaultPkey},
		&mem.Fault{Kind: mem.FaultPkey},
		stack.ErrStackSmash,
		nil,                 // not counted
		errors.New("other"), // not counted
	} {
		c.Add(Classify(err))
	}
	if got := c.Count(MechDomainViolation); got != 2 {
		t.Errorf("domain violations = %d, want 2", got)
	}
	if got := c.Count(MechStackCanary); got != 1 {
		t.Errorf("stack canaries = %d, want 1", got)
	}
	if got := total(&c); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
}

func TestCountOutOfRange(t *testing.T) {
	var c Counters
	if got := c.Count(Mechanism(200)); got != 0 {
		t.Errorf("Count(invalid) = %d, want 0", got)
	}
}

func TestMechanismStrings(t *testing.T) {
	for m := MechNone; m <= MechSegfault; m++ {
		if m.String() == "" {
			t.Errorf("empty string for mechanism %d", m)
		}
	}
	if Mechanism(99).String() == "" {
		t.Error("unknown mechanism should render")
	}
}
