package httpd

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/vclock"
)

// slowConfig returns a system config with a 1 MHz simulated core, so a
// modest request exceeds a deadline-derived cycle budget.
func slowConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Cost.CPUHz = 1_000_000
	return cfg
}

// bigRequest renders a request whose in-domain parse traffic (~64 KiB
// stored + loaded) exceeds the 100k-cycle budget a sub-quantum deadline
// maps to at 1 MHz.
func bigRequest() []byte {
	headers := make(map[string]string, 16)
	filler := strings.Repeat("x", 4000)
	for i := 0; i < 16; i++ {
		name := "x-filler-" + string(rune('a'+i))
		headers[name] = filler
	}
	return BuildRequest("GET", "/", headers)
}

// TestServeContextDeadlinePreempts: a request deadline becomes a
// virtual-cycle budget; a request whose parse exceeds it is preempted,
// its domain rewound, and the client answered 408 — deterministically,
// at the same virtual cycle on every run.
func TestServeContextDeadlinePreempts(t *testing.T) {
	run := func() (Response, Stats) {
		sys := core.NewSystem(slowConfig())
		srv, err := NewServer(sys, Config{Mode: ModeSDRaD})
		if err != nil {
			t.Fatal(err)
		}
		srv.HandleFunc("/", []byte("content"))
		ctx, cancel := context.WithTimeout(context.Background(), vclock.DeadlineQuantum/2)
		defer cancel()
		resp := srv.ServeContext(ctx, 0, bigRequest())
		return resp, srv.Stats()
	}

	resp1, st1 := run()
	if resp1.Status != 408 {
		t.Fatalf("status = %d (err %v), want 408", resp1.Status, resp1.Err)
	}
	if _, ok := core.IsBudget(resp1.Err); !ok {
		t.Fatalf("err = %v, want *core.BudgetError", resp1.Err)
	}
	if st1.Preempted != 1 || st1.Violations != 0 {
		t.Errorf("stats = %+v, want 1 preemption and no violations", st1)
	}

	// Deterministic: the second run preempts at the same virtual cycle.
	resp2, _ := run()
	b1, _ := core.IsBudget(resp1.Err)
	b2, ok := core.IsBudget(resp2.Err)
	if !ok {
		t.Fatalf("second run err = %v, want *core.BudgetError", resp2.Err)
	}
	if b1.Used != b2.Used || b1.Budget != b2.Budget {
		t.Errorf("preemption point differs across runs: used %d/%d vs %d/%d",
			b1.Used, b1.Budget, b2.Used, b2.Budget)
	}
}

// TestServeContextNoDeadlineUnbounded: the same request succeeds without
// a deadline, proving the 408 above came from the budget.
func TestServeContextNoDeadlineUnbounded(t *testing.T) {
	sys := core.NewSystem(slowConfig())
	srv, err := NewServer(sys, Config{Mode: ModeSDRaD})
	if err != nil {
		t.Fatal(err)
	}
	srv.HandleFunc("/", []byte("content"))
	resp := srv.ServeContext(context.Background(), 0, bigRequest())
	if resp.Status != 200 {
		t.Fatalf("status = %d (err %v), want 200", resp.Status, resp.Err)
	}
}
