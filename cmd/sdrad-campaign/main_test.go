package main

import (
	"os"
	"path/filepath"
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
