package attackgen_test

import (
	"net"
	"strings"
	"testing"

	"repro/internal/attackgen"
	"repro/internal/core"
	"repro/internal/kvstore"
)

// startServer brings up a real sdrad-kvd-equivalent TCP server: one
// shard behind the batched frontend at the binary's default flags.
func startServer(t *testing.T, mode kvstore.Mode) (string, func()) {
	t.Helper()
	pool, err := kvstore.NewPool(core.DefaultConfig(), kvstore.ServerConfig{Mode: mode}, 1, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := kvstore.NewBatchedNetServerPool(pool, nil, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- ns.Serve(ln) }()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if err := ns.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

func TestAttackRunAgainstSDRaD(t *testing.T) {
	addr, stop := startServer(t, kvstore.ModeSDRaD)
	defer stop()

	report, err := attackgen.Run(attackgen.Config{Addr: addr, Requests: 400, AttackEvery: 40, Clients: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if report.BenignFailures != 0 {
		t.Errorf("benign failures = %d under SDRaD containment", report.BenignFailures)
	}
	if report.AttacksSent == 0 {
		t.Error("no attacks were sent")
	}
	if report.AttacksErrored != report.AttacksSent {
		t.Errorf("attacks errored %d/%d — every exploit should get SERVER_ERROR",
			report.AttacksErrored, report.AttacksSent)
	}
	if report.Hits+report.Misses == 0 {
		t.Error("no GET traffic observed")
	}
	out := report.String()
	if !strings.Contains(out, "containment holds") {
		t.Errorf("report verdict wrong:\n%s", out)
	}
}

func TestAttackRunWithoutAttacks(t *testing.T) {
	addr, stop := startServer(t, kvstore.ModeSDRaD)
	defer stop()
	report, err := attackgen.Run(attackgen.Config{Addr: addr, Requests: 100, AttackEvery: 0, Clients: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.AttacksSent != 0 {
		t.Errorf("attacks sent = %d with AttackEvery=0", report.AttacksSent)
	}
	if report.BenignFailures != 0 {
		t.Errorf("benign failures = %d without attacks", report.BenignFailures)
	}
}

func TestAttackRunBadAddress(t *testing.T) {
	if _, err := attackgen.Run(attackgen.Config{Addr: "127.0.0.1:1", Requests: 10, Clients: 1}); err == nil {
		t.Error("unreachable server accepted")
	}
}

func TestReportString(t *testing.T) {
	r := attackgen.Report{Requests: 10, BenignRequests: 8, BenignFailures: 2, AttacksSent: 2, AttacksErrored: 2}
	out := r.String()
	if !strings.Contains(out, "disrupted") {
		t.Errorf("failure verdict missing:\n%s", out)
	}
	if !strings.Contains(out, "25.00%") {
		t.Errorf("failure rate missing:\n%s", out)
	}
}
