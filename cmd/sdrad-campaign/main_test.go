package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// capture runs main's run() with stdout redirected to a pipe-backed
// file and returns (exit code, output).
func capture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, f)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

func TestRunIsDeterministic(t *testing.T) {
	args := []string{"-seed", "42", "-requests", "40", "-json"}
	code1, out1 := capture(t, args...)
	code2, out2 := capture(t, args...)
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d, %d", code1, code2)
	}
	if out1 != out2 {
		t.Fatal("same flags produced different output")
	}
	if !strings.Contains(out1, `"survivor_digest"`) {
		t.Error("JSON trace missing survivor digests")
	}
}

func TestSummaryOutput(t *testing.T) {
	code, out := capture(t, "-seed", "7", "-requests", "30", "-scenarios", "kv-pool-mixed,kv-pool-benign")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"campaign seed=7", "kv-pool-mixed", "kv-pool-benign", "digest="} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q in:\n%s", want, out)
		}
	}
}

func TestListScenarios(t *testing.T) {
	code, out := capture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"kv-pool-mixed", "http-domain-benign", "ffi-bridge-binary", "attack 1/", "benign"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	code, _ := capture(t, "-scenarios", "no-such-scenario")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestGatewaySummaryOutput(t *testing.T) {
	code, out := capture(t, "-seed", "5", "-requests", "40",
		"-scenarios", "kv-pool-benign", "-gateway", "gw-attack-tenants")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"gateway gw-attack-tenants", "steady", "attacker", "hostile"} {
		if !strings.Contains(out, want) {
			t.Errorf("gateway summary missing %q in:\n%s", want, out)
		}
	}
}

func TestGatewayListed(t *testing.T) {
	code, out := capture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "gw-noisy-neighbor") || !strings.Contains(out, "hostile") {
		t.Errorf("list missing gateway scenarios:\n%s", out)
	}
}

func TestUnknownGatewayScenarioFails(t *testing.T) {
	code, _ := capture(t, "-scenarios", "kv-pool-benign", "-gateway", "no-such-gateway")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestGatewayIsolationOracleWired(t *testing.T) {
	code, out := capture(t, "-seed", "11", "-requests", "40",
		"-scenarios", "kv-pool-benign", "-gateway", "gw-noisy-neighbor", "-oracles")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{
		`PASS oracle "isolation" scenario "gw-noisy-neighbor(w=1)"`,
		`PASS oracle "isolation(batch=32)" scenario "gw-noisy-neighbor(w=8)"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("oracle output missing %q in:\n%s", want, out)
		}
	}
}

func TestOutFileAndOracles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, out := capture(t, "-seed", "3", "-requests", "30",
		"-scenarios", "kv-pool-benign,ffi-pool-runaway", "-oracles", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"scenario": "kv-pool-benign"`) {
		t.Error("trace file missing scenario")
	}
	if !strings.Contains(out, "oracles: ") || strings.Contains(out, "FAILED") {
		t.Errorf("oracle output unexpected:\n%s", out)
	}
}

// smokeArgs are `make campaign-smoke`'s flags, minus its -out file.
var smokeArgs = []string{"-seed", "42", "-requests", "100",
	"-scenarios", "kv-pool-mixed,http-domain-malformed,ffi-bridge-binary,kv-pool-benign,kv-pool-resize",
	"-gateway", "gw-attack-tenants", "-oracles"}

// TestSmokeVerdictRows pins the oracle table as the CLI prints it:
// every (verdict, oracle, scenario) line of the campaign smoke, in
// order. Dropping, adding or reordering a row of the table, or a
// scenario of a row, fails it.
func TestSmokeVerdictRows(t *testing.T) {
	code, out := capture(t, append(smokeArgs, "-out", filepath.Join(t.TempDir(), "trace.json"))...)
	if code != 0 {
		t.Errorf("exit %d", code)
	}
	var got []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "PASS oracle ") || strings.HasPrefix(line, "FAIL oracle ") {
			line, _, _ = strings.Cut(line, ": ") // drop a failure's detail
			got = append(got, line)
		}
	}
	want := []string{
		`PASS oracle "same-seed"`,
		`PASS oracle "worker-count" scenario "kv-pool-mixed"`,
		`PASS oracle "worker-count" scenario "kv-pool-benign"`,
		`PASS oracle "worker-count" scenario "kv-pool-resize"`,
		`PASS oracle "worker-count" scenario "http-domain-malformed"`,
		`PASS oracle "worker-count" scenario "ffi-bridge-binary"`,
		`PASS oracle "benign" scenario "kv-pool-benign"`,
		`PASS oracle "batched(8)" scenario "kv-pool-mixed"`,
		`PASS oracle "batched(8)" scenario "kv-pool-benign"`,
		`PASS oracle "batched(8)" scenario "kv-pool-resize"`,
		`PASS oracle "batched(8)" scenario "http-domain-malformed"`,
		`PASS oracle "batched(8)" scenario "ffi-bridge-binary"`,
		`PASS oracle "batched(32)" scenario "kv-pool-mixed"`,
		`PASS oracle "batched(32)" scenario "kv-pool-benign"`,
		`PASS oracle "batched(32)" scenario "kv-pool-resize"`,
		`PASS oracle "batched(32)" scenario "http-domain-malformed"`,
		`PASS oracle "batched(32)" scenario "ffi-bridge-binary"`,
		`PASS oracle "recovery" scenario "kv-crash(w=1,b=8)"`,
		`PASS oracle "recovery" scenario "kv-crash(w=1,b=32)"`,
		`PASS oracle "recovery" scenario "kv-crash(w=4,b=8)"`,
		`PASS oracle "recovery" scenario "kv-crash(w=4,b=32)"`,
		`PASS oracle "recovery" scenario "kv-crash(w=8,b=8)"`,
		`PASS oracle "recovery" scenario "kv-crash(w=8,b=32)"`,
		`PASS oracle "isolation" scenario "gw-attack-tenants(w=1)"`,
		`PASS oracle "isolation" scenario "gw-attack-tenants(w=4)"`,
		`PASS oracle "isolation" scenario "gw-attack-tenants(w=8)"`,
		`PASS oracle "isolation(batch=8)" scenario "gw-attack-tenants(w=1)"`,
		`PASS oracle "isolation(batch=32)" scenario "gw-attack-tenants(w=1)"`,
		`PASS oracle "isolation(batch=8)" scenario "gw-attack-tenants(w=4)"`,
		`PASS oracle "isolation(batch=32)" scenario "gw-attack-tenants(w=4)"`,
		`PASS oracle "isolation(batch=8)" scenario "gw-attack-tenants(w=8)"`,
		`PASS oracle "isolation(batch=32)" scenario "gw-attack-tenants(w=8)"`,
		`PASS oracle "cluster" scenario "kv-cluster-steady(n=1,r=0)"`,
		`PASS oracle "cluster" scenario "kv-cluster-steady(n=2,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-crash(n=2,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-rolling(n=2,r=0)"`,
		`PASS oracle "cluster" scenario "kv-cluster-partition(n=2,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-read-replica(n=2,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-steady(n=4,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-crash(n=4,r=2)"`,
		`PASS oracle "cluster" scenario "kv-cluster-rolling(n=4,r=0)"`,
		`PASS oracle "cluster" scenario "kv-cluster-partition(n=4,r=1)"`,
		`PASS oracle "cluster" scenario "kv-cluster-read-replica(n=4,r=2)"`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdict rows differ:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
