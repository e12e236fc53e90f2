// Benchmarks regenerating every table/figure of the evaluation (E1..E8;
// see DESIGN.md §4) plus the ablations of DESIGN.md §5. Wall-clock
// numbers here measure the simulator itself; the paper-shaped virtual
// time measurements are produced by `go run ./cmd/sdrad-bench`, which
// these benches drive through the same code paths.
package sdrad_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	sdrad "repro"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/exp"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/procmodel"
	"repro/internal/serde"
	"repro/internal/workload"
)

// ---- E1: steady-state overhead ----

func benchKV(b *testing.B, mode kvstore.Mode) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: mode, InterArrival: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 5000})
	if err != nil {
		b.Fatal(err)
	}
	startVT := sys.Clock().Now() // exclude setup from the virtual metric
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.Handle(i%8, gen.Next()); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.StopTimer()
	if vt := sys.Clock().Now() - startVT; vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1KVNative(b *testing.B) { benchKV(b, kvstore.ModeNative) }
func BenchmarkE1KVSDRaD(b *testing.B)  { benchKV(b, kvstore.ModeSDRaD) }

func benchHTTP(b *testing.B, mode httpd.Mode) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := httpd.NewServer(sys, httpd.Config{Mode: mode, InterArrival: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	srv.HandleFunc("/", []byte("<html>index</html>"))
	raw := httpd.BuildRequest("GET", "/", nil)
	startVT := sys.Clock().Now() // exclude setup from the virtual metric
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := srv.Serve(i%8, raw); resp.Err != nil {
			b.Fatal(resp.Err)
		}
	}
	b.StopTimer()
	if vt := sys.Clock().Now() - startVT; vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1HTTPNative(b *testing.B) { benchHTTP(b, httpd.ModeNative) }
func BenchmarkE1HTTPSDRaD(b *testing.B)  { benchHTTP(b, httpd.ModeSDRaD) }

// ---- E1 batched: submission-queue request coalescing ----
//
// The batched benchmarks serve the same workloads as the serial E1
// pair, but pipeline requests through Server.HandleBatch/ServeBatch in
// waves of batch= requests: one network round trip per wave and one
// domain Enter/Exit + integrity sweep per worker group instead of per
// request. batch=1 measures the batching layer's overhead at no
// coalescing; batch=32 is the acceptance point (>= 1.5x the serial
// SDRaD ops/s on the same workload).

func benchKVBatched(b *testing.B, batch int) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 5000})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]kvstore.BatchRequest, 0, batch)
	startVT := sys.Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		reqs = reqs[:0]
		for j := 0; j < n; j++ {
			reqs = append(reqs, kvstore.BatchRequest{ClientID: (i + j) % 8, Req: gen.Next()})
		}
		for _, resp := range srv.HandleBatch(reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
	b.StopTimer()
	if vt := sys.Clock().Now() - startVT; vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1KVSDRaDBatched(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) { benchKVBatched(b, k) })
	}
}

// ---- E1 durable: WAL group commit on the E1 hot path ----
//
// Same workload and batching as BenchmarkE1KVSDRaDBatched, but with the
// persistence engine attached: every committed batch is one WAL append
// (and, with fsync, one fsync). fsyncs/req is the amortization claim in
// metric form: batch=1 starts at the workload's write fraction (reads
// stage no records, so a read-only "batch" costs no sync) and falls
// with batch size as group commit coalesces the writes. The snap=
// variants add the periodic incremental-snapshot cost at the
// acceptance point.

func benchKVDurable(b *testing.B, batch int, fsync bool, snapEvery int) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	var pm metrics.Persist
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{
		Mode:         kvstore.ModeSDRaD,
		InterArrival: time.Nanosecond,
		Persist: &kvstore.PersistConfig{
			Dir: b.TempDir(), Fsync: fsync, SnapshotEvery: snapEvery, Metrics: &pm,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 5000})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]kvstore.BatchRequest, 0, batch)
	startVT := sys.Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		reqs = reqs[:0]
		for j := 0; j < n; j++ {
			reqs = append(reqs, kvstore.BatchRequest{ClientID: (i + j) % 8, Req: gen.Next()})
		}
		for _, resp := range srv.HandleBatch(reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
	b.StopTimer()
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	if vt := sys.Clock().Now() - startVT; vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
	b.ReportMetric(float64(pm.Snapshot().Fsyncs)/float64(b.N), "fsyncs/req")
}

func BenchmarkE1KVSDRaDDurable(b *testing.B) {
	for _, fsync := range []bool{false, true} {
		for _, k := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("fsync=%v/batch=%d", fsync, k), func(b *testing.B) {
				benchKVDurable(b, k, fsync, 0)
			})
		}
	}
	// Snapshot-cadence sweep at the acceptance point (fsync on, batch=32):
	// how much the periodic dirty-page capture costs on top of the WAL.
	for _, every := range []int{8, 64} {
		b.Run(fmt.Sprintf("fsync=true/batch=32/snap=%d", every), func(b *testing.B) {
			benchKVDurable(b, 32, true, every)
		})
	}
}

func benchHTTPBatched(b *testing.B, batch int) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := httpd.NewServer(sys, httpd.Config{Mode: httpd.ModeSDRaD, InterArrival: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	srv.HandleFunc("/", []byte("<html>index</html>"))
	raw := httpd.BuildRequest("GET", "/", nil)
	reqs := make([]httpd.BatchRequest, 0, batch)
	startVT := sys.Clock().Now()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		reqs = reqs[:0]
		for j := 0; j < n; j++ {
			reqs = append(reqs, httpd.BatchRequest{ClientID: (i + j) % 8, Raw: raw})
		}
		for _, resp := range srv.ServeBatch(reqs) {
			if resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	}
	b.StopTimer()
	if vt := sys.Clock().Now() - startVT; vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1HTTPSDRaDBatched(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch=%d", k), func(b *testing.B) { benchHTTPBatched(b, k) })
	}
}

// BenchmarkAsyncPoolSubmit measures the public AsyncPool submission
// path end to end: queue, coalesced batch entry, future resolution.
func BenchmarkAsyncPoolSubmit(b *testing.B) {
	pool, err := sdrad.NewPool(4)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 32, MaxInflight: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = ap.Close() }()
	payload := make([]byte, 128)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := ap.Do(context.Background(), func(c *sdrad.Ctx) error {
				p := c.MustAlloc(128)
				c.MustStore(p, payload)
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// ---- E1 parallel: supervisor-pool throughput scaling ----
//
// The pooled servers shard requests across N workers, each a private
// simulated machine, so N goroutines execute domains concurrently. Two
// throughputs matter: wall-clock ops/sec (scales with physical cores
// driving the simulator) and vops/s — requests per second of simulated
// machine time, computed against the pool's parallel makespan (the
// slowest shard's virtual clock). vops/s shows the architectural scaling
// even on a single-core host: N workers are N simulated cores.

func benchKVPool(b *testing.B, workers int) {
	b.Helper()
	pool, err := kvstore.NewPool(core.DefaultConfig(),
		kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Nanosecond},
		workers, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	var clientSeq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(clientSeq.Add(1))
		gen, err := workload.NewKV(workload.KVConfig{Seed: uint64(id), Keys: 5000})
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if resp := pool.HandleContext(context.Background(), id, gen.Next()); resp.Err != nil {
				b.Error(resp.Err)
				return
			}
		}
	})
	b.StopTimer()
	if vt := pool.VirtualTime(); vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1KVSDRaDParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchKVPool(b, w) })
	}
}

func benchHTTPPool(b *testing.B, workers int) {
	b.Helper()
	pool, err := httpd.NewPool(core.DefaultConfig(),
		httpd.Config{Mode: httpd.ModeSDRaD, InterArrival: time.Nanosecond}, workers)
	if err != nil {
		b.Fatal(err)
	}
	pool.HandleFunc("/", []byte("<html>index</html>"))
	raw := httpd.BuildRequest("GET", "/", nil)
	var clientSeq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := int(clientSeq.Add(1))
		for pb.Next() {
			if resp := pool.Serve(id, raw); resp.Err != nil {
				b.Error(resp.Err)
				return
			}
		}
	})
	b.StopTimer()
	if vt := pool.VirtualTime(); vt > 0 {
		b.ReportMetric(float64(b.N)/vt.Seconds(), "vops/s")
	}
}

func BenchmarkE1HTTPSDRaDParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchHTTPPool(b, w) })
	}
}

// BenchmarkPoolRoundTrip measures the public sdrad.Pool dispatch path:
// least-loaded pick, warm-domain entry, and discard-on-return.
func BenchmarkPoolRoundTrip(b *testing.B) {
	pool, err := sdrad.NewPool(4)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			err := pool.Run(func(c *sdrad.Ctx) error {
				p := c.MustAlloc(128)
				c.MustStore(p, make([]byte, 128))
				return nil
			})
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkE1TLSNative(b *testing.B) {
	if _, err := exp.TLSOverhead(false, b.N, 1); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE1TLSSDRaD(b *testing.B) {
	if _, err := exp.TLSOverhead(true, b.N, 1); err != nil {
		b.Fatal(err)
	}
}

// ---- E2: recovery ----

// BenchmarkE2RewindAndDiscard measures real rewind-and-discard
// operations: each iteration triggers a violation in a warm domain.
func BenchmarkE2RewindAndDiscard(b *testing.B) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{HeapPages: 8}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sys.Enter(1, func(c *core.DomainCtx) error {
			p := c.MustAlloc(256)
			c.MustStore(p, make([]byte, 256))
			c.MustStore64(0xbad000, 1)
			return nil
		})
		if _, ok := core.IsViolation(err); !ok {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2RestartModel measures the restart cost-model evaluation
// across the state-size sweep.
func BenchmarkE2RestartModel(b *testing.B) {
	sizes := []uint64{100_000_000, 1_000_000_000, 10_000_000_000}
	for i := 0; i < b.N; i++ {
		for _, sz := range sizes {
			_ = procmodel.ProcessRestart{}.RecoveryTime(sz)
			_ = procmodel.ContainerRestart{}.RecoveryTime(sz)
		}
	}
}

// ---- E3: availability arithmetic ----

func BenchmarkE3AvailabilitySweep(b *testing.B) {
	restart := procmodel.ProcessRestart{}.RecoveryTime(10_000_000_000)
	rewind := 3500 * time.Nanosecond
	target := avail.NinesTarget(5)
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{1, 3, 10, 100, 10_000, 10_000_000} {
			_ = avail.Meets(f, restart, target)
			_ = avail.Meets(f, rewind, target)
			_ = avail.Nines(avail.Availability(avail.Downtime(f, rewind)))
		}
		_ = avail.MaxRecoveries(target, rewind)
	}
}

// ---- E4: containment under attack ----

func benchContainment(b *testing.B, mode kvstore.Mode) {
	b.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: mode, InterArrival: time.Nanosecond})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: 1, Keys: 2000})
	if err != nil {
		b.Fatal(err)
	}
	mal := &workload.MaliciousEvery{G: gen, N: 100}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = srv.Handle(i%8, mal.Next())
	}
}

func BenchmarkE4UnderAttackNative(b *testing.B) { benchContainment(b, kvstore.ModeNative) }
func BenchmarkE4UnderAttackSDRaD(b *testing.B)  { benchContainment(b, kvstore.ModeSDRaD) }

// ---- E6: isolation micro-costs ----

// BenchmarkE6DomainRoundTrip measures a no-op domain enter/exit.
func BenchmarkE6DomainRoundTrip(b *testing.B) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
		b.Fatal(err)
	}
	noop := func(*core.DomainCtx) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Enter(1, noop); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6MechanismModel evaluates the E6 cost-model table.
func BenchmarkE6MechanismModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = procmodel.IsolationMechanisms(sdrad.DefaultCostModel())
	}
}

// ---- E7: energy assessment ----

func BenchmarkE7EnergyAssessment(b *testing.B) {
	sc := energy.DefaultScenario()
	sts := procmodel.DefaultStrategies()
	for i := 0; i < b.N; i++ {
		_ = energy.AssessAll(sc, sts)
	}
}

// ---- E8: serialization codecs ----

func BenchmarkE8Codec(b *testing.B) {
	for _, size := range []int{16, 4096, 65536} {
		for _, name := range []string{"raw", "binary", "json"} {
			b.Run(fmt.Sprintf("%s/%dB", name, size), func(b *testing.B) {
				codec, err := serde.ByName(name)
				if err != nil {
					b.Fatal(err)
				}
				payload := make([]byte, size)
				workload.NewRNG(1).Bytes(payload)
				args := []any{payload}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					enc, err := codec.Encode(args)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := codec.Decode(enc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// BenchmarkAblationDiscardZeroing compares rewind with and without the
// page scrub. The dirty= dimension varies how many of the 64 heap pages
// the run writes before violating: with dirty-page-bounded discard the
// host cost of zero=true scales with dirty, not with the mapped heap
// size (virtual cycles charge the full range either way).
func BenchmarkAblationDiscardZeroing(b *testing.B) {
	bench := func(b *testing.B, zero bool, dirtyPages int) {
		cfg := core.DefaultConfig()
		cfg.ZeroOnDiscard = zero
		sys := core.NewSystem(cfg)
		if _, err := sys.InitDomain(1, core.DomainConfig{HeapPages: 64, MaxHeapPages: 64}); err != nil {
			b.Fatal(err)
		}
		// Touch ~one page per chunk: payload 4072 + overhead = 4096+24.
		dirt := make([]byte, 4072)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := sys.Enter(1, func(c *core.DomainCtx) error {
				for j := 0; j < dirtyPages; j++ {
					p := c.MustAlloc(len(dirt))
					c.MustStore(p, dirt)
				}
				c.Violate(nil)
				return nil
			})
			if _, ok := core.IsViolation(err); !ok {
				b.Fatal(err)
			}
		}
	}
	for _, zero := range []bool{true, false} {
		b.Run(fmt.Sprintf("zero=%v", zero), func(b *testing.B) { bench(b, zero, 0) })
	}
	for _, dirty := range []int{1, 8, 32, 56} {
		b.Run(fmt.Sprintf("zero=true/dirty=%d", dirty), func(b *testing.B) { bench(b, true, dirty) })
	}
}

// BenchmarkAblationDetection compares clean exits with and without the
// exit-time heap integrity sweep.
func BenchmarkAblationDetection(b *testing.B) {
	for _, sweep := range []bool{true, false} {
		b.Run(fmt.Sprintf("sweep=%v", sweep), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.IntegrityCheckOnExit = sweep
			sys := core.NewSystem(cfg)
			if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
				b.Fatal(err)
			}
			// A handful of live chunks for the sweep to walk.
			if err := sys.Enter(1, func(c *core.DomainCtx) error {
				for j := 0; j < 16; j++ {
					c.MustAlloc(64)
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Enter(1, func(*core.DomainCtx) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationGranularity compares one domain entry per request vs
// batching many requests per entry (domain-per-connection vs
// domain-per-request trade-off).
func BenchmarkAblationGranularity(b *testing.B) {
	for _, batch := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			sys := core.NewSystem(core.DefaultConfig())
			if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
				b.Fatal(err)
			}
			work := func(c *core.DomainCtx) {
				p := c.MustAlloc(128)
				c.MustStore(p, make([]byte, 128))
				c.MustFree(p)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i += batch {
				n := batch
				if rem := b.N - i; rem < n {
					n = rem
				}
				err := sys.Enter(1, func(c *core.DomainCtx) error {
					for j := 0; j < n; j++ {
						work(c)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNesting measures entry cost vs domain nesting depth.
func BenchmarkAblationNesting(b *testing.B) {
	for _, depth := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			sys := core.NewSystem(core.DefaultConfig())
			for d := 1; d <= depth; d++ {
				if _, err := sys.InitDomain(core.UDI(d), core.DomainConfig{HeapPages: 2, StackPages: 2}); err != nil {
					b.Fatal(err)
				}
			}
			var enter func(c *core.DomainCtx, d int) error
			enter = func(c *core.DomainCtx, d int) error {
				if d > depth {
					return nil
				}
				return c.Enter(core.UDI(d), func(ic *core.DomainCtx) error {
					return enter(ic, d+1)
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := sys.Enter(1, func(c *core.DomainCtx) error {
					return enter(c, 2)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFFICallRoundTrip measures the full SDRaD-FFI pipeline through
// the public API.
func BenchmarkFFICallRoundTrip(b *testing.B) {
	sup := sdrad.New()
	bridge, err := sup.NewBridge(sdrad.CodecBinary)
	if err != nil {
		b.Fatal(err)
	}
	if err := bridge.Register(sdrad.Foreign{
		Name: "echo",
		Fn:   func(_ *sdrad.Ctx, args []any) ([]any, error) { return args, nil },
	}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bridge.Call("echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Elastic controller under burst load ----
//
// BenchmarkElasticBurst alternates concurrent submission bursts with a
// serial trickle against an AsyncPool running the elastic controller.
// Bursts back the queues up past the grow threshold (the controller
// doubles the worker set); the trickle's per-batch evaluations see the
// queues idle and halve it back. The custom metrics pin the controller's
// activity in the JSON report: workers_max is the burst high-water
// count, workers_final the post-trickle count, grown/shrunk the resize
// totals, and sheds/op the overload rejections per request.
func BenchmarkElasticBurst(b *testing.B) {
	pool, err := sdrad.NewPool(2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = pool.Close() }()
	ap, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{MaxBatch: 8, MaxInflight: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = ap.Close() }()
	if err := ap.EnableElastic(sdrad.ElasticConfig{Min: 2, Max: 8, GrowDepthPerWorker: 2, ShrinkIdleEvals: 4}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	work := func(c *sdrad.Ctx) error {
		p := c.MustAlloc(64)
		c.MustStore(p, payload)
		return nil
	}
	var sheds atomic.Int64
	b.ResetTimer()
	done := 0
	futs := make([]*sdrad.Future, 0, 192)
	for done < b.N {
		// Burst: fire-and-forget submissions well past the admission
		// bound, then wait. The backed-up queues are the grow signal;
		// overload rejections are the admission layer doing its job
		// under the burst — shed load, not errors.
		burst := b.N - done
		if burst > 192 {
			burst = 192
		}
		futs = futs[:0]
		for i := 0; i < burst; i++ {
			futs = append(futs, ap.Submit(context.Background(), work))
		}
		for _, f := range futs {
			if err := f.Err(); err != nil {
				if _, ok := sdrad.IsOverload(err); ok {
					sheds.Add(1)
					continue
				}
				b.Fatal(err)
			}
		}
		done += burst
		// Trickle: serial requests whose batch completions give the
		// controller its idle evaluations.
		for j := 0; j < 48 && done < b.N; j++ {
			if err := ap.Do(context.Background(), work); err != nil {
				b.Fatal(err)
			}
			done++
		}
	}
	b.StopTimer()
	// Untimed settle: idle evaluations after the last burst, so
	// workers_final reports the shrunk-back steady state. The yield
	// after each call lets the coalesced-kick controller goroutine run
	// between completions; without it a tight serial loop outpaces the
	// evaluations and the shrink lands after the loop gives up.
	for i := 0; i < 500 && ap.ElasticStats().Workers > 2; i++ {
		if err := ap.Do(context.Background(), work); err != nil {
			b.Fatal(err)
		}
		runtime.Gosched()
	}
	st := ap.ElasticStats()
	b.ReportMetric(float64(st.MaxWorkers), "workers_max")
	b.ReportMetric(float64(st.Workers), "workers_final")
	b.ReportMetric(float64(st.Grown), "grown")
	b.ReportMetric(float64(st.Shrunk), "shrunk")
	b.ReportMetric(float64(sheds.Load())/float64(b.N), "sheds/op")
}
