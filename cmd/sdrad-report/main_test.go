package main

import (
	"io"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/metrics"
)

func TestBuildReport(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick"}, &out); code != 0 {
		t.Errorf("exit code = %d", code)
	}
	report := out.String()
	for _, want := range []string{
		"# EXPERIMENTS",
		"## E1", "## E2", "## E3", "## E4",
		"## E5", "## E6", "## E7", "## E8",
		"## A1", "## A2", "## A3",
		"quick, seed 1",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(report) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(report))
	}
}

// TestShapeFailureExitsOne feeds the verdict path a result whose
// metrics break a check: the report still renders it, marked, and the
// exit status is 1.
func TestShapeFailureExitsOne(t *testing.T) {
	res := &exp.Result{
		ID:      "E2",
		Claim:   "rewind",
		Table:   metrics.NewTable("E2", "rewind µs"),
		Metrics: map[string]float64{"rewind_us": 1e6, "restart_10g_s": 120, "restart_rewind_ratio": 1e7},
	}
	var out strings.Builder
	if code := emit(&out, "", exp.Runner{Seed: 1}, []*exp.Result{res}); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	if !strings.Contains(out.String(), "- ✗ rewind is µs-scale") || !strings.Contains(out.String(), "2/3 checks pass") {
		t.Errorf("failed check not rendered:\n%s", out.String())
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick", "-exp", "E3"}, &out); code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if !strings.Contains(out.String(), "## E3") || strings.Contains(out.String(), "## E1") {
		t.Errorf("want only the E3 section:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if code := run([]string{"-exp", "E99"}, io.Discard); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
}

func TestRunBadFlag(t *testing.T) {
	if code := run([]string{"-definitely-not-a-flag"}, io.Discard); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestRunLowercaseIDsAccepted(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-quick", "-exp", "e6, a1"}, &out); code != 0 {
		t.Errorf("exit code = %d", code)
	}
	if !strings.Contains(out.String(), "## E6") || !strings.Contains(out.String(), "## A1") {
		t.Errorf("want the E6 and A1 sections:\n%s", out.String())
	}
}
