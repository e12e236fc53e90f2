package campaign

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/detect"
)

// coreExecutor is a test executor built directly on internal/core: w
// domains on one System, entered via EnterWithBudget. It proves the
// engine against the real detection/rewind substrate without the public
// Runner wiring (which backends_test.go covers).
type coreExecutor struct {
	sys  *core.System
	udis []core.UDI
}

func newCoreExecutor(workers int) (*coreExecutor, error) {
	sys := core.NewSystem(core.DefaultConfig())
	e := &coreExecutor{sys: sys}
	for i := 0; i < workers; i++ {
		d, err := sys.CreateDomain(core.DomainConfig{HeapPages: 8, StackPages: 4})
		if err != nil {
			return nil, err
		}
		e.udis = append(e.udis, d.UDI())
	}
	return e, nil
}

func coreFactory(t *testing.T) ExecutorFactory {
	return func(target Target, workers int) (Executor, error) {
		return newCoreExecutor(workers)
	}
}

func (e *coreExecutor) Exec(worker int, budget uint64, fn func(*core.DomainCtx) error) error {
	return e.sys.EnterWithBudget(e.udis[worker%len(e.udis)], budget, fn)
}

func (e *coreExecutor) Detections() map[string]uint64 {
	out := make(map[string]uint64)
	for m := detect.MechDomainViolation; m <= detect.MechSegfault; m++ {
		if n := e.sys.Counters().Count(m); n > 0 {
			out[m.String()] = n
		}
	}
	return out
}

func (e *coreExecutor) Rewinds() uint64 {
	var n uint64
	for _, udi := range e.udis {
		d, err := e.sys.Domain(udi)
		if err == nil {
			n += d.Stats().Rewinds
		}
	}
	return n
}

func (e *coreExecutor) VirtualCycles() uint64 { return e.sys.Clock().Cycles() }

func (e *coreExecutor) Close() error {
	for _, udi := range e.udis {
		if err := e.sys.DeinitDomain(udi); err != nil {
			return err
		}
	}
	return nil
}

func testScenarios() []Scenario {
	return []Scenario{
		{
			Name: "kv-mixed", Workload: WorkloadKV, Target: TargetDomain,
			Faults:      []FaultClass{FaultUAF, FaultHeapOverflow, FaultFreedHeaderSmash, FaultCrash, FaultBudget, FaultMalformedPayload},
			AttackEvery: 4,
		},
		{
			Name: "http-mixed", Workload: WorkloadHTTP, Target: TargetPool,
			Faults:      []FaultClass{FaultHeapOverflow, FaultCrash, FaultMalformedPayload},
			AttackEvery: 5,
		},
		{
			Name: "ffi-codec", Workload: WorkloadFFI, Target: TargetBridge,
			Faults:      []FaultClass{FaultMalformedPayload, FaultUAF, FaultBudget},
			AttackEvery: 4, Codec: "json",
		},
		{Name: "kv-benign", Workload: WorkloadKV, Target: TargetDomain},
		{Name: "http-benign", Workload: WorkloadHTTP, Target: TargetPool},
		{Name: "ffi-benign", Workload: WorkloadFFI, Target: TargetBridge, Codec: "raw"},
	}
}

func TestEngineSameSeedBitIdentical(t *testing.T) {
	cfg := Config{Seed: 42, Workers: 3, Requests: 150, Scenarios: testScenarios()}
	t1, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := t1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := t2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatal("same seed produced different traces")
	}
	// A different seed must change the trace (the engine is actually
	// seed-driven, not constant).
	cfg.Seed = 43
	t3, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	j3, err := t3.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(j1, j3) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestFaultClassOutcomes pins the outcome contract per fault class:
// memory-safety classes are detected (with the right mechanism class),
// budget exhaustion preempts, malformed payloads are rejected or pass
// through silently-garbled — never detected, never a supervisor panic.
func TestFaultClassOutcomes(t *testing.T) {
	cfg := Config{Seed: 7, Workers: 2, Requests: 600, Scenarios: testScenarios()[:3]}
	tr, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	wantMech := map[string]string{
		FaultUAF.String():              "heap-canary",
		FaultHeapOverflow.String():     "heap-canary",
		FaultFreedHeaderSmash.String(): "heap-canary",
		FaultCrash.String():            "segfault",
	}
	seen := make(map[string]int)
	for _, st := range tr.Scenarios {
		for _, out := range st.Outcomes {
			seen[out.Fault]++
			switch out.Fault {
			case "":
				if out.Outcome != OutcomeOK && out.Outcome != OutcomeRejected {
					t.Errorf("%s: benign request %d got %q", st.Scenario, out.I, out.Outcome)
				}
			case FaultBudget.String():
				if out.Outcome != OutcomePreempted {
					t.Errorf("%s: budget request %d got %q, want preempted", st.Scenario, out.I, out.Outcome)
				}
			case FaultMalformedPayload.String():
				if out.Outcome != OutcomeRejected && out.Outcome != OutcomeOK {
					t.Errorf("%s: malformed request %d got %q/%q, want rejected or ok", st.Scenario, out.I, out.Outcome, out.Mech)
				}
			default:
				if out.Outcome != OutcomeDetected {
					t.Errorf("%s: %s request %d got %q, want detected", st.Scenario, out.Fault, out.I, out.Outcome)
				} else if want := wantMech[out.Fault]; want != "" && out.Mech != want {
					t.Errorf("%s: %s request %d detected by %q, want %q", st.Scenario, out.Fault, out.I, out.Mech, want)
				}
			}
		}
	}
	for fc := range wantMech {
		if seen[fc] == 0 {
			t.Errorf("schedule never drew fault class %q across 1800 requests", fc)
		}
	}
	if seen[FaultBudget.String()] == 0 || seen[FaultMalformedPayload.String()] == 0 {
		t.Error("schedule never drew budget or malformed classes")
	}
}

func TestDetectionAccountingConsistent(t *testing.T) {
	cfg := Config{Seed: 11, Workers: 2, Requests: 200, Scenarios: testScenarios()[:1]}
	tr, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Scenarios[0]
	var detected uint64
	for _, out := range st.Outcomes {
		if out.Outcome == OutcomeDetected {
			detected++
		}
	}
	if st.DetectionTotal != detected {
		t.Errorf("executor counted %d detections, trace outcomes show %d", st.DetectionTotal, detected)
	}
	if st.Rewinds != detected+st.Preemptions {
		t.Errorf("rewinds %d != detections %d + preemptions %d", st.Rewinds, detected, st.Preemptions)
	}
	if st.OK+st.Rejected+detected+st.Preemptions != uint64(st.Requests) {
		t.Errorf("outcome counts do not partition %d requests", st.Requests)
	}
	if st.VirtualCycles == 0 {
		t.Error("no virtual cycles recorded")
	}
	if len(st.SurvivorDigest) != 16 {
		t.Errorf("bad survivor digest %q", st.SurvivorDigest)
	}
}

func TestConfigValidation(t *testing.T) {
	factory := coreFactory(t)
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"no scenarios", Config{Seed: 1}, "no scenarios"},
		{"unnamed", Config{Scenarios: []Scenario{{Workload: WorkloadKV, Target: TargetPool}}}, "needs a name"},
		{"bad workload", Config{Scenarios: []Scenario{{Name: "x", Target: TargetPool}}}, "unknown workload"},
		{"bad target", Config{Scenarios: []Scenario{{Name: "x", Workload: WorkloadKV}}}, "unknown target"},
		{"faults without every", Config{Scenarios: []Scenario{{Name: "x", Workload: WorkloadKV, Target: TargetPool, Faults: []FaultClass{FaultUAF}}}}, "without AttackEvery"},
		{"fault none", Config{Scenarios: []Scenario{{Name: "x", Workload: WorkloadKV, Target: TargetPool, Faults: []FaultClass{FaultNone}, AttackEvery: 2}}}, "FaultNone"},
		{"codec on kv", Config{Scenarios: []Scenario{{Name: "x", Workload: WorkloadKV, Target: TargetPool, Codec: "json"}}}, "only meaningful"},
		{"duplicate", Config{Scenarios: []Scenario{
			{Name: "x", Workload: WorkloadKV, Target: TargetPool},
			{Name: "x", Workload: WorkloadKV, Target: TargetPool},
		}}, "duplicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.cfg, factory)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestSubseedStreamsIndependent(t *testing.T) {
	seen := make(map[uint64]string)
	for _, sc := range []string{"a", "b"} {
		for _, stream := range []string{"workload", "schedule", "dispatch", "corrupt"} {
			s := subseed(99, sc, stream)
			if prev, dup := seen[s]; dup {
				t.Errorf("subseed collision: %s/%s vs %s", sc, stream, prev)
			}
			seen[s] = sc + "/" + stream
		}
	}
	if subseed(1, "a", "workload") == subseed(2, "a", "workload") {
		t.Error("subseed ignores the seed")
	}
}

func TestParseKVTable(t *testing.T) {
	cases := []struct {
		in   string
		ok   bool
		key  string
		val  string
		desc string
	}{
		{"get key-1\r\n", true, "key-1", "", "get"},
		{"gets key-1\r\n", true, "key-1", "", "gets"},
		{"delete key-1\r\n", true, "key-1", "", "delete"},
		{"set k 0 0 5\r\nhello\r\n", true, "k", "hello", "set"},
		{"set k 0 0 0\r\n\r\n", true, "k", "", "empty set"},
		{"set k 0 0 5\r\nhell\r\n", false, "", "", "short data"},
		{"set k 0 0 -1\r\n\r\n", false, "", "", "negative count"},
		{"get\r\n", false, "", "", "missing key"},
		{"get a b\r\n", false, "", "", "extra field"},
		{"get k\r\ntrailing", false, "", "", "trailing bytes"},
		{"bogus k\r\n", false, "", "", "unknown command"},
		{"no crlf", false, "", "", "unterminated"},
		{"", false, "", "", "empty"},
	}
	for _, tc := range cases {
		_, key, val, ok := ParseKV([]byte(tc.in))
		if ok != tc.ok {
			t.Errorf("%s: ParseKV(%q) ok=%v, want %v", tc.desc, tc.in, ok, tc.ok)
			continue
		}
		if ok && (key != tc.key || string(val) != tc.val) {
			t.Errorf("%s: ParseKV(%q) = %q/%q, want %q/%q", tc.desc, tc.in, key, val, tc.key, tc.val)
		}
	}
}

func TestTraceSummaryDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, Workers: 2, Requests: 60, Scenarios: testScenarios()[:2]}
	tr, err := Run(cfg, coreFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Summary() != tr.Summary() {
		t.Error("summary not deterministic")
	}
	if !strings.Contains(tr.Summary(), "kv-mixed") {
		t.Error("summary missing scenario name")
	}
}
