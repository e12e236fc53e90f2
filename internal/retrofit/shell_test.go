package retrofit_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/pku"
	"repro/internal/procmodel"
	"repro/internal/retrofit"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// TestShell is the shell's conformance table, run for both servers: a
// shell asked for more worker domains than the machine has protection
// keys is refused with an error naming the server; a native crash
// opens a restart window whose arrivals are dropped and counted; and a
// failed domain run is classified — contained, preempted or failed —
// with the counters moving accordingly. The key-limit row builds a
// shell configured as the server configures its own; the other rows
// run through the servers' public request paths.
func TestShell(t *testing.T) {
	for _, h := range []harness{kvHarness(), httpdHarness()} {
		t.Run(h.Name, func(t *testing.T) {
			t.Run("key-limit", func(t *testing.T) { keyLimit(t, h) })
			t.Run("native-restart-window", func(t *testing.T) { restartWindow(t, h) })
			for _, c := range classifierRows(h) {
				t.Run("classify-"+c.name, func(t *testing.T) { classify(t, h, c) })
			}
		})
	}
}

// kind is the kind of request server.Serve sends.
type kind int

// Request kinds.
const (
	// benign is a well-formed request the server answers successfully.
	benign kind = iota
	// attack triggers the server's injected memory bug.
	attack
	// large is a benign request whose in-domain parse traffic exceeds
	// the cycle budget a sub-quantum deadline maps to on a 1 MHz core.
	large
)

// server is one server under test.
type server struct {
	// Serve sends one request of kind k from client clientID and returns
	// the error the client sees (nil for a success).
	Serve func(ctx context.Context, clientID int, k kind) error
	// Stats returns the server's counters.
	Stats func() retrofit.Counters
	// State returns the bytes of state a native restart reloads.
	State func() uint64
}

// harness describes one server to the table.
type harness struct {
	// Name is the server's name, which its shell's errors carry.
	Name string
	// FirstUDI is the UDI of the first worker domain.
	FirstUDI core.UDI
	// Unavailable is the error of a request dropped in a native restart
	// window.
	Unavailable error
	// New builds a server on sys: SDRaD mode with the default worker
	// count, or native mode when native is set.
	New func(t *testing.T, sys *core.System, native bool) server
}

func newServer(t *testing.T, h harness, native bool) (server, *core.System) {
	sys := core.NewSystem(core.DefaultConfig())
	return h.New(t, sys, native), sys
}

// keyLimit: a shell asked for a worker domain per protection key — more
// than the machine has once the default and root-protected keys are
// spoken for — is refused, and the error names the server.
func keyLimit(t *testing.T, h harness) {
	sys := core.NewSystem(core.DefaultConfig())
	_, err := retrofit.New(sys, retrofit.Config{Name: h.Name, FirstUDI: h.FirstUDI, Workers: pku.NumKeys})
	if !errors.Is(err, pku.ErrNoKeys) || !strings.HasPrefix(err.Error(), h.Name+":") {
		t.Errorf("New with %d workers = %v, want ErrNoKeys naming %s", pku.NumKeys, err, h.Name)
	}
}

// restartWindow: a native crash answers Unavailable and opens the
// restart window procmodel.ProcessRestart prices for the server's
// state; every arrival inside it is dropped with Unavailable and counted,
// and the first arrival after it is served.
func restartWindow(t *testing.T, h harness) {
	srv, sys := newServer(t, h, true)
	clk := sys.Clock()
	before := srv.Stats()
	crashedAt := clk.Now()
	if err := srv.Serve(context.Background(), 0, attack); !errors.Is(err, h.Unavailable) {
		t.Fatalf("crash: %v, want %v", err, h.Unavailable)
	}
	restart := procmodel.ProcessRestart{Cost: clk.Model()}.RecoveryTime(srv.State())
	dropped := uint64(0)
	for {
		err := srv.Serve(context.Background(), 0, benign)
		if err == nil {
			break
		}
		if !errors.Is(err, h.Unavailable) {
			t.Fatalf("inside the restart window: %v, want %v", err, h.Unavailable)
		}
		if dropped++; dropped > 1e6 {
			t.Fatal("the restart window never closed")
		}
	}
	if dropped == 0 {
		t.Error("no arrival fell inside the restart window")
	}
	if served := clk.Now(); served < crashedAt+restart || served > crashedAt+restart+10*time.Millisecond {
		t.Errorf("served again %v after the crash, restart takes %v", served-crashedAt, restart)
	}
	want := retrofit.Counters{Requests: dropped + 2, Crashes: 1, Dropped: dropped}
	if got := delta(srv.Stats(), before); got != want {
		t.Errorf("counters moved by %+v, want %+v", got, want)
	}
}

// classifierRow is one kind of failed domain run.
type classifierRow struct {
	name string
	// hz, when nonzero, is the simulated core's clock rate.
	hz uint64
	// setup runs before the counted request; it returns that request's
	// context and kind.
	setup func(t *testing.T, srv server, sys *core.System) (context.Context, kind)
	// is reports whether the client saw the right error.
	is   func(error) bool
	want retrofit.Counters
}

func classifierRows(h harness) []classifierRow {
	bg := func(*testing.T, server, *core.System) (context.Context, kind) { return context.Background(), attack }
	return []classifierRow{{
		name:  "violation",
		setup: bg,
		is:    func(err error) bool { _, ok := core.IsViolation(err); return ok },
		want:  retrofit.Counters{Requests: 1, Violations: 1},
	}, {
		name: "budget",
		hz:   1_000_000,
		setup: func(t *testing.T, _ server, _ *core.System) (context.Context, kind) {
			ctx, cancel := context.WithTimeout(context.Background(), vclock.DeadlineQuantum/2)
			t.Cleanup(cancel)
			return ctx, large
		},
		is:   func(err error) bool { _, ok := core.IsBudget(err); return ok },
		want: retrofit.Counters{Requests: 1, Preempted: 1},
	}, {
		name: "deadline-exceeded",
		setup: func(t *testing.T, _ server, _ *core.System) (context.Context, kind) {
			ctx, cancel := context.WithDeadline(context.Background(), time.Unix(1, 0))
			t.Cleanup(cancel)
			return ctx, benign
		},
		is:   func(err error) bool { return errors.Is(err, context.DeadlineExceeded) },
		want: retrofit.Counters{Requests: 1, Preempted: 1},
	}, {
		name: "canceled",
		setup: func(*testing.T, server, *core.System) (context.Context, kind) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, benign
		},
		is:   func(err error) bool { return errors.Is(err, context.Canceled) },
		want: retrofit.Counters{Requests: 1, Preempted: 1},
	}, {
		// A worker quarantined by its violation budget refuses entry: the
		// run fails with neither a detection nor a preemption.
		name: "other",
		setup: func(t *testing.T, srv server, sys *core.System) (context.Context, kind) {
			if err := sys.SetViolationBudget(h.FirstUDI, 1); err != nil {
				t.Fatal(err)
			}
			if err := srv.Serve(context.Background(), 0, attack); err == nil {
				t.Fatal("attack served")
			}
			return context.Background(), benign
		},
		is:   func(err error) bool { return errors.Is(err, core.ErrQuarantined) },
		want: retrofit.Counters{Requests: 1},
	}}
}

// classify sends a row's request from client 0 of a fresh SDRaD server
// and checks the error the client saw and the counters' deltas.
func classify(t *testing.T, h harness, c classifierRow) {
	cfg := core.DefaultConfig()
	if c.hz != 0 {
		cfg.Cost.CPUHz = c.hz
	}
	sys := core.NewSystem(cfg)
	srv := h.New(t, sys, false)
	ctx, k := c.setup(t, srv, sys)
	before := srv.Stats()
	if err := srv.Serve(ctx, 0, k); !c.is(err) {
		t.Fatalf("client saw %v", err)
	}
	if got := delta(srv.Stats(), before); got != c.want {
		t.Errorf("counters moved by %+v, want %+v", got, c.want)
	}
}

// delta returns a − b field by field.
func delta(a, b retrofit.Counters) retrofit.Counters {
	return retrofit.Counters{
		Requests:   a.Requests - b.Requests,
		Violations: a.Violations - b.Violations,
		Crashes:    a.Crashes - b.Crashes,
		Dropped:    a.Dropped - b.Dropped,
		Preempted:  a.Preempted - b.Preempted,
	}
}

// kvHarness runs the table against the kv server.
func kvHarness() harness {
	requests := map[kind]workload.Request{
		benign: {Op: workload.OpGet, Key: "k"},
		attack: {Op: workload.OpSet, Key: "x", Value: []byte("evil"), Malicious: true},
		large:  {Op: workload.OpSet, Key: "big", Value: bytes.Repeat([]byte("v"), 64<<10)},
	}
	return harness{
		Name:        "kvstore",
		FirstUDI:    10,
		Unavailable: kvstore.ErrUnavailable,
		New: func(t *testing.T, sys *core.System, native bool) server {
			cache, err := kvstore.NewCache(sys, 1, 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			cfg := kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, FirstWorkerUDI: 10}
			if native {
				cfg.Mode = kvstore.ModeNative
				// ~2 MB of state: the restart window spans hundreds of
				// arrivals.
				if _, err := kvstore.Warmup(cache, 2<<20, 4096); err != nil {
					t.Fatal(err)
				}
			}
			srv, err := kvstore.NewServer(sys, cache, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return server{
				Serve: func(ctx context.Context, clientID int, k kind) error {
					return srv.HandleContext(ctx, clientID, requests[k]).Err
				},
				Stats: func() retrofit.Counters { return srv.Stats().Counters },
				State: cache.Bytes,
			}
		},
	}
}

// httpdHarness runs the table against the web server, checking on every
// row that the status matches the outcome (wireStatus).
func httpdHarness() harness {
	// The large request's in-domain parse traffic is ~64 KiB stored and
	// loaded.
	filler := make(map[string]string, 16)
	for i := 0; i < 16; i++ {
		filler["x-filler-"+string(rune('a'+i))] = strings.Repeat("x", 4000)
	}
	requests := map[kind][]byte{
		benign: httpd.BuildRequest("GET", "/", nil),
		attack: httpd.BuildRequest("GET", "/", map[string]string{httpd.AttackHeader: "1"}),
		large:  httpd.BuildRequest("GET", "/", filler),
	}
	return harness{
		Name:        "httpd",
		FirstUDI:    30,
		Unavailable: httpd.ErrUnavailable,
		New: func(t *testing.T, sys *core.System, native bool) server {
			cfg := httpd.Config{Mode: httpd.ModeSDRaD, FirstWorkerUDI: 30}
			if native {
				cfg.Mode = httpd.ModeNative
			}
			srv, err := httpd.NewServer(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.HandleFunc("/", []byte("<html>home</html>"))
			if native {
				// Enough content that the restart window spans many
				// arrivals.
				srv.HandleFunc("/bulk", make([]byte, 4<<20))
			}
			return server{
				Serve: func(ctx context.Context, clientID int, k kind) error {
					resp := srv.ServeContext(ctx, clientID, requests[k])
					if want := wireStatus(resp.Err); resp.Status != want {
						t.Errorf("status %d for %v, want %d", resp.Status, resp.Err, want)
					}
					return resp.Err
				},
				Stats: srv.Stats,
				State: srv.ContentBytes,
			}
		},
	}
}

// wireStatus is the status httpd answers a request whose outcome is err:
// 200 served, 400 a contained exploit, 408 a preemption, 503 dropped in
// the restart window, 500 the crash itself and any other failure.
func wireStatus(err error) int {
	if err == nil {
		return 200
	}
	if _, ok := core.IsViolation(err); ok {
		return 400
	}
	if _, ok := core.IsBudget(err); ok || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return 408
	}
	if err == httpd.ErrUnavailable {
		return 503
	}
	return 500
}
