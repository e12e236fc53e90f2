package campaign

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Target selects which Runner implementation executes a scenario.
type Target uint8

// Targets.
const (
	// TargetDomain runs requests on per-worker Domains of one Supervisor
	// (persistent heaps across requests, one simulated machine).
	TargetDomain Target = iota + 1
	// TargetPool runs requests on a Pool (one simulated machine per
	// worker, pristine domain per request via discard-on-return).
	TargetPool
	// TargetBridge runs requests on per-worker FFI Bridges' backing
	// domains (one simulated machine).
	TargetBridge
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case TargetDomain:
		return "domain"
	case TargetPool:
		return "pool"
	case TargetBridge:
		return "bridge"
	default:
		return fmt.Sprintf("Target(%d)", uint8(t))
	}
}

// Workload selects the request shape a scenario drives.
type Workload uint8

// Workloads.
const (
	// WorkloadKV parses memcached-text commands in-domain and applies
	// them to a trusted survivor cache.
	WorkloadKV Workload = iota + 1
	// WorkloadHTTP parses HTTP/1.1 request heads in-domain and routes
	// them against a trusted table.
	WorkloadHTTP
	// WorkloadFFI round-trips codec-serialized argument vectors through
	// the domain (the SDRaD-FFI transfer path).
	WorkloadFFI
)

// String implements fmt.Stringer.
func (w Workload) String() string {
	switch w {
	case WorkloadKV:
		return "kv"
	case WorkloadHTTP:
		return "http"
	case WorkloadFFI:
		return "ffi"
	default:
		return fmt.Sprintf("Workload(%d)", uint8(w))
	}
}

// FaultClass is a campaign-level fault the schedule can inject into a
// request.
type FaultClass uint8

// Fault classes.
const (
	// FaultNone marks a benign request.
	FaultNone FaultClass = iota
	// FaultUAF writes through a dangling pointer (fault.UseAfterFree).
	FaultUAF
	// FaultHeapOverflow overruns a heap allocation (fault.HeapOverflow).
	FaultHeapOverflow
	// FaultFreedHeaderSmash corrupts a freed chunk's header
	// (fault.FreedHeaderSmash).
	FaultFreedHeaderSmash
	// FaultBudget makes the request consume cycles until its per-request
	// cycle budget preempts it (surfaces as a *BudgetError, not a
	// detection).
	FaultBudget
	// FaultCrash panics inside the domain (fault.Crash — an in-domain
	// worker crash the supervisor must contain).
	FaultCrash
	// FaultMalformedPayload replaces the request bytes with a
	// deterministically corrupted payload (attackgen.Corruptor). The
	// allowed outcomes are a parser/codec rejection or — when the
	// mutation leaves the payload syntactically valid — a silently
	// garbled request; never a memory-safety detection and never a
	// supervisor panic.
	FaultMalformedPayload
)

// String implements fmt.Stringer.
func (f FaultClass) String() string {
	switch f {
	case FaultNone:
		return ""
	case FaultUAF:
		return "uaf"
	case FaultHeapOverflow:
		return "heap-overflow"
	case FaultFreedHeaderSmash:
		return "freed-header-smash"
	case FaultBudget:
		return "budget-exhaustion"
	case FaultCrash:
		return "worker-crash"
	case FaultMalformedPayload:
		return "malformed-payload"
	default:
		return fmt.Sprintf("FaultClass(%d)", uint8(f))
	}
}

// FaultClasses returns every injectable class (FaultNone excluded).
func FaultClasses() []FaultClass {
	return []FaultClass{FaultUAF, FaultHeapOverflow, FaultFreedHeaderSmash, FaultBudget, FaultCrash, FaultMalformedPayload}
}

// Scenario is one table-driven workload/fault/backend composition. Add a
// scenario by appending a struct literal to scenarios.All (or passing
// your own to Config.Scenarios).
type Scenario struct {
	// Name identifies the scenario in traces and flags.
	Name string
	// Workload selects the request shape.
	Workload Workload
	// Target selects the Runner backend.
	Target Target
	// Faults is the set of classes the schedule draws from; empty means
	// benign-only.
	Faults []FaultClass
	// AttackEvery sets the expected fault spacing: each request is
	// malicious with probability 1/AttackEvery (PRNG-interleaved, so
	// attack positions vary with the seed). 0 with non-empty Faults is
	// invalid.
	AttackEvery int
	// Requests overrides Config.Requests for this scenario when > 0.
	Requests int
	// Codec names the serde codec for WorkloadFFI ("" = binary).
	Codec string
}

// Validate reports structural problems with the scenario definition.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return errors.New("campaign: scenario needs a name")
	}
	switch s.Workload {
	case WorkloadKV, WorkloadHTTP, WorkloadFFI:
	default:
		return fmt.Errorf("campaign: scenario %q: unknown workload %v", s.Name, s.Workload)
	}
	switch s.Target {
	case TargetDomain, TargetPool, TargetBridge:
	default:
		return fmt.Errorf("campaign: scenario %q: unknown target %v", s.Name, s.Target)
	}
	if len(s.Faults) > 0 && s.AttackEvery <= 0 {
		return fmt.Errorf("campaign: scenario %q: faults without AttackEvery", s.Name)
	}
	for _, f := range s.Faults {
		if f == FaultNone {
			return fmt.Errorf("campaign: scenario %q: FaultNone in fault set", s.Name)
		}
		known := false
		for _, k := range FaultClasses() {
			if f == k {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("campaign: scenario %q: unknown fault class %v", s.Name, f)
		}
	}
	if s.Codec != "" && s.Workload != WorkloadFFI {
		return fmt.Errorf("campaign: scenario %q: codec is only meaningful for the ffi workload", s.Name)
	}
	return nil
}

// Benign reports whether the scenario injects no faults.
func (s Scenario) Benign() bool { return len(s.Faults) == 0 || s.AttackEvery <= 0 }

// Config configures one campaign run.
type Config struct {
	// Seed drives every PRNG stream (workload, schedule, dispatch,
	// corruption). Same seed ⇒ bit-identical trace.
	Seed uint64
	// Workers is the number of isolated workers per scenario (default 4).
	Workers int
	// Requests is the per-scenario request count (default 400), unless a
	// scenario overrides it.
	Requests int
	// Batch is the wave size requests are drawn and executed in (default
	// 1 = serial): a wave's calls coalesce per worker into one batched
	// domain execution where the executor supports it.
	Batch int
	// Scenarios is the scenario table to run, in order.
	Scenarios []Scenario
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Requests <= 0 {
		c.Requests = 400
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return c
}

// Validate checks every scenario and the config itself.
func (c Config) Validate() error {
	if len(c.Scenarios) == 0 {
		return errors.New("campaign: no scenarios")
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for _, s := range c.Scenarios {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("campaign: duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Executor is one provisioned backend: Workers isolated domains behind a
// Runner implementation. The engine is single-goroutine; executors need
// not be concurrency-safe.
type Executor interface {
	// Exec runs fn inside worker w's domain (w is taken modulo the
	// worker count) with an optional virtual-cycle budget (0 = none). A
	// violation must rewind-and-discard and surface as a
	// *core.ViolationError; a blown budget as a *core.BudgetError.
	Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error
	// Detections returns per-mechanism containment counts so far.
	Detections() map[string]uint64
	// Rewinds returns total rewind-and-discard recoveries (violations
	// plus budget preemptions) across workers.
	Rewinds() uint64
	// VirtualCycles returns the summed virtual cycles across the
	// executor's simulated machines.
	VirtualCycles() uint64
	// Close releases the executor's domains.
	Close() error
}

// ExecutorFactory provisions an Executor for a target with the given
// worker count. The engine creates one executor per scenario run and
// closes it afterwards.
type ExecutorFactory func(target Target, workers int) (Executor, error)

// BatchCall is one call of an executor batch: its in-domain function
// and per-request cycle budget (0 = none).
type BatchCall struct {
	Budget uint64
	Fn     func(*core.DomainCtx) error
}

// BatchExecutor is implemented by executors that can coalesce
// same-worker calls into one batched domain execution (one Enter/Exit,
// one integrity sweep, one discard decision). The contract the wave
// loop and the batched oracle rely on: results are positional and each
// errs[i] must be what serial Exec(worker, calls[i].Budget,
// calls[i].Fn) would have returned — batched backends achieve this by
// re-deriving outcomes serially whenever a batch faults (the replay
// rule, DESIGN.md §9). Calls may therefore execute more than once.
type BatchExecutor interface {
	Executor
	// ExecBatch runs calls back to back on worker w's domain.
	ExecBatch(worker int, calls []BatchCall) []error
}
