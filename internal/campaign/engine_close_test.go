package campaign

import (
	"errors"
	"strings"
	"testing"
)

// closeFail wraps a real executor so Close reports a failure after
// releasing the underlying domains.
type closeFail struct {
	Executor
	err error
}

func (c closeFail) Close() error {
	if err := c.Executor.Close(); err != nil {
		return err
	}
	return c.err
}

// TestScenarioCloseFailureInvalidatesRun pins a fix sdradlint's
// errclass analyzer surfaced: executor Close errors were silently
// swallowed after each scenario. A teardown failure is a finding — an
// executor that cannot close cleanly invalidates the run — so every
// run through the wave loop, serial, batched or gateway, must fail and
// wrap the typed error.
func TestScenarioCloseFailureInvalidatesRun(t *testing.T) {
	base := coreFactory(t)
	wantErr := errors.New("stub: close failed")
	factory := func(target Target, workers int) (Executor, error) {
		ex, err := base(target, workers)
		if err != nil {
			return nil, err
		}
		return closeFail{Executor: ex, err: wantErr}, nil
	}
	cases := []struct {
		name    string
		batch   int
		gateway bool
	}{
		{"batch=1", 1, false},
		{"batch=8", 8, false},
		{"gateway", 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 11, Workers: 2, Requests: 30, Batch: tc.batch, Scenarios: testScenarios()[:1]}
			var err error
			traced := false
			if tc.gateway {
				var tr *GatewayTrace
				tr, err = RunGateway(testGatewayScenario(), cfg, factory)
				traced = tr != nil
			} else {
				var tr *Trace
				tr, err = Run(cfg, factory)
				traced = tr != nil
			}
			if err == nil {
				t.Fatal("run succeeded despite a failing executor Close")
			}
			if !errors.Is(err, wantErr) {
				t.Fatalf("run error %v does not wrap the executor's Close error", err)
			}
			if !strings.Contains(err.Error(), "closing") {
				t.Errorf("run error %q does not name the teardown phase", err)
			}
			if traced {
				t.Error("run returned a trace alongside the error")
			}
		})
	}
}
