package exp

import (
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pku"
	"repro/internal/procmodel"
	"repro/internal/serde"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// ---- E1: steady-state overhead ----

// KVOverhead drives n benign requests through a fresh server in the given
// mode and returns virtual nanoseconds per request. Exported for the
// bench harness.
func KVOverhead(mode kvstore.Mode, n int, seed uint64) (float64, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		return 0, err
	}
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: mode, InterArrival: time.Nanosecond})
	if err != nil {
		return 0, err
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: seed, Keys: 5000})
	if err != nil {
		return 0, err
	}
	start := sys.Clock().Cycles()
	for i := 0; i < n; i++ {
		if resp := srv.Handle(i%8, gen.Next()); resp.Err != nil {
			return 0, fmt.Errorf("request %d failed: %w", i, resp.Err)
		}
	}
	total := sys.Clock().Since(start)
	return float64(total.Nanoseconds()) / float64(n), nil
}

// HTTPOverhead drives n benign GETs through a fresh web server.
func HTTPOverhead(mode httpd.Mode, n int, seed uint64) (float64, error) {
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := httpd.NewServer(sys, httpd.Config{Mode: mode, InterArrival: time.Nanosecond})
	if err != nil {
		return 0, err
	}
	srv.HandleFunc("/", []byte("<html>index</html>"))
	srv.HandleFunc("/static", make([]byte, 8192))
	rng := workload.NewRNG(seed)
	paths := []string{"/", "/static"}
	start := sys.Clock().Cycles()
	for i := 0; i < n; i++ {
		raw := httpd.BuildRequest("GET", paths[rng.Intn(len(paths))], nil)
		if resp := srv.Serve(i%8, raw); resp.Err != nil {
			return 0, fmt.Errorf("request %d failed: %w", i, resp.Err)
		}
	}
	total := sys.Clock().Since(start)
	return float64(total.Nanoseconds()) / float64(n), nil
}

// TLSOverhead measures record digesting: native (unprotected scratch
// heap) vs sdrad (inside a domain). Returns ns/op.
func TLSOverhead(sdradMode bool, n int, seed uint64) (float64, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cost := sys.Clock().Model()
	rng := workload.NewRNG(seed)
	record := make([]byte, 512)
	rng.Bytes(record)

	if !sdradMode {
		scratch, err := alloc.New(sys.Mem(), pku.DefaultKey, alloc.Config{InitialPages: 8})
		if err != nil {
			return 0, err
		}
		start := sys.Clock().Cycles()
		for i := 0; i < n; i++ {
			sys.Clock().Advance(2 * cost.Syscall) // read/write record
			buf, err := scratch.Alloc(len(record))
			if err != nil {
				return 0, err
			}
			if err := sys.Mem().StoreBytes(pku.PKRUAllowAll, buf, record); err != nil {
				return 0, err
			}
			tmp := make([]byte, len(record))
			if err := sys.Mem().LoadBytes(pku.PKRUAllowAll, buf, tmp); err != nil {
				return 0, err
			}
			if err := scratch.Free(buf); err != nil {
				return 0, err
			}
		}
		total := sys.Clock().Since(start)
		return float64(total.Nanoseconds()) / float64(n), nil
	}

	if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
		return 0, err
	}
	start := sys.Clock().Cycles()
	for i := 0; i < n; i++ {
		sys.Clock().Advance(2 * cost.Syscall)
		var out mem.Addr
		err := sys.Enter(1, func(c *core.DomainCtx) error {
			buf := c.MustAlloc(len(record))
			c.MustStore(buf, record)
			tmp := make([]byte, len(record))
			c.MustLoad(buf, tmp)
			c.MustFree(buf)
			// Stage the parse result (digest + validated header) for the
			// trusted caller.
			out = c.MustAlloc(64)
			c.MustStore(out, tmp[:64])
			return nil
		})
		if err != nil {
			return 0, err
		}
		// The trusted side copies the result out of the domain — this
		// boundary crossing exists only in the compartmentalized mode.
		if _, err := sys.CopyFromDomain(out, 64); err != nil {
			return 0, err
		}
		d, err := sys.Domain(1)
		if err != nil {
			return 0, err
		}
		if err := d.Heap().Free(out); err != nil {
			return 0, err
		}
	}
	total := sys.Clock().Since(start)
	return float64(total.Nanoseconds()) / float64(n), nil
}

func (r Runner) runE1() (*Result, error) {
	n := r.requests(20_000)
	type row struct {
		name           string
		native, sdradV float64
	}
	var rows []row

	kvN, err := KVOverhead(kvstore.ModeNative, n, r.seed())
	if err != nil {
		return nil, err
	}
	kvS, err := KVOverhead(kvstore.ModeSDRaD, n, r.seed())
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"memcached-like KV", kvN, kvS})

	// The conventional process-isolation sandbox (§IV's comparison
	// point): same containment, but IPC + context switches per request.
	kvSB, err := KVOverhead(kvstore.ModeSandbox, n, r.seed())
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"memcached-like KV (process sandbox)", kvN, kvSB})

	htN, err := HTTPOverhead(httpd.ModeNative, n, r.seed())
	if err != nil {
		return nil, err
	}
	htS, err := HTTPOverhead(httpd.ModeSDRaD, n, r.seed())
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"nginx-like httpd", htN, htS})

	tlN, err := TLSOverhead(false, n, r.seed())
	if err != nil {
		return nil, err
	}
	tlS, err := TLSOverhead(true, n, r.seed())
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"openssl-like tlslib", tlN, tlS})

	t := metrics.NewTable("E1 — steady-state overhead of SDRaD compartmentalization",
		"use case", "native ns/req", "isolated ns/req", "overhead")
	for _, rw := range rows {
		oh := (rw.sdradV - rw.native) / rw.native * 100
		t.AddRow(rw.name, fmt.Sprintf("%.0f", rw.native), fmt.Sprintf("%.0f", rw.sdradV),
			fmt.Sprintf("%.2f%%", oh))
	}
	t.Caption = fmt.Sprintf("paper: 2%%–4%% in realistic multi-processing scenarios; %d requests per cell, virtual time", n)
	res := &Result{Table: t, Notes: "per-request work includes modeled recv/send syscalls; overhead = domain enter/exit + PKRU switches + exit integrity sweep"}
	res.metric("kv_overhead_pct", (kvS-kvN)/kvN*100)
	res.metric("sandbox_overhead_pct", (kvSB-kvN)/kvN*100)
	res.metric("httpd_overhead_pct", (htS-htN)/htN*100)
	res.metric("tls_overhead_pct", (tlS-tlN)/tlN*100)
	return res, nil
}

// ---- E2: recovery latency vs state size ----

// MeasuredRewind triggers one violation in a fresh default domain and
// returns the measured virtual rewind time.
func MeasuredRewind(heapPages int) (time.Duration, error) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{HeapPages: heapPages}); err != nil {
		return 0, err
	}
	err := sys.Enter(1, func(c *core.DomainCtx) error {
		c.MustStore64(0xbad000, 1)
		return nil
	})
	if _, ok := core.IsViolation(err); !ok {
		return 0, fmt.Errorf("expected violation, got %v", err)
	}
	cycles, err := sys.RewindCycles(1)
	if err != nil {
		return 0, err
	}
	return vclock.CyclesToDuration(cycles, sys.Clock().Model().CPUHz), nil
}

func (r Runner) runE2() (*Result, error) {
	rewind, err := MeasuredRewind(8)
	if err != nil {
		return nil, err
	}
	sizes := []uint64{100_000_000, 1_000_000_000, 10_000_000_000}
	t := metrics.NewTable("E2 — recovery latency vs application state size",
		"state", "process-restart", "container-restart", "checkpoint-restore", "sdrad-rewind", "restart/rewind")
	for _, sz := range sizes {
		pr := procmodel.ProcessRestart{}.RecoveryTime(sz)
		cr := procmodel.ContainerRestart{}.RecoveryTime(sz)
		cp := procmodel.CheckpointRestore{}.RecoveryTime(sz)
		t.AddRow(
			fmt.Sprintf("%d MB", sz/1_000_000),
			metrics.FormatDuration(pr),
			metrics.FormatDuration(cr),
			metrics.FormatDuration(cp),
			metrics.FormatDuration(rewind),
			fmt.Sprintf("%.2g×", float64(pr)/float64(rewind)),
		)
	}
	t.Caption = "paper: ~2 min restart at 10 GB vs 3.5 µs rewind; rewind is measured (8-page connection domain), restarts are cost-model"
	res := &Result{Table: t, Notes: "rewind latency is independent of state size: long-lived state survives in the root domain"}
	tenGB := procmodel.ProcessRestart{}.RecoveryTime(10_000_000_000)
	res.metric("rewind_us", float64(rewind.Nanoseconds())/1e3)
	res.metric("restart_10g_s", tenGB.Seconds())
	res.metric("restart_rewind_ratio", float64(tenGB)/float64(rewind))
	return res, nil
}

// ---- E3: availability arithmetic ----

func (r Runner) runE3() (*Result, error) {
	rewind, err := MeasuredRewind(8)
	if err != nil {
		return nil, err
	}
	restart := procmodel.ProcessRestart{}.RecoveryTime(10_000_000_000)
	target := avail.NinesTarget(5)

	t := metrics.NewTable("E3 — availability under memory-fault rates (five-nines target)",
		"faults/yr", "restart downtime", "restart nines", "rewind downtime", "rewind nines", "5-nines (restart/rewind)")
	for _, f := range []float64{1, 3, 10, 100, 10_000, 10_000_000} {
		dR := avail.Downtime(f, restart)
		dW := avail.Downtime(f, rewind)
		t.AddRow(
			fmt.Sprintf("%.0f", f),
			metrics.FormatDuration(dR),
			fmt.Sprintf("%.2f", avail.Nines(avail.Availability(dR))),
			metrics.FormatDuration(dW),
			fmt.Sprintf("%.2f", avail.Nines(avail.Availability(dW))),
			fmt.Sprintf("%v / %v", avail.Meets(f, restart, target), avail.Meets(f, rewind, target)),
		)
	}
	t.Caption = fmt.Sprintf(
		"budget %s/yr; max recoveries within budget: restart %.2g, rewind %.3g (paper: >9·10⁷ at 3.5µs)",
		metrics.FormatDuration(avail.DowntimeBudget(target)),
		avail.MaxRecoveries(target, restart),
		avail.MaxRecoveries(target, rewind),
	)
	res := &Result{Table: t, Notes: "reproduces §IV's arithmetic with the measured rewind time"}
	res.metric("budget_min_per_year", avail.DowntimeBudget(target).Minutes())
	res.metric("max_recoveries_rewind", avail.MaxRecoveries(target, rewind))
	res.metric("restart_meets_at_3", boolMetric(avail.Meets(3, restart, target)))
	res.metric("rewind_meets_at_3", boolMetric(avail.Meets(3, rewind, target)))
	return res, nil
}

// boolMetric encodes a boolean as 0/1 for the metric map.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ---- E4: malicious-client containment ----

// ContainmentResult summarizes one containment run.
type ContainmentResult struct {
	Mode              string
	Requests          int
	BenignRequests    int
	BenignFailures    int
	BenignP99         time.Duration
	AttacksContained  uint64
	Crashes           uint64
	DroppedInDowntime uint64
}

// RunContainment drives a mixed benign/malicious workload and reports
// the benign clients' experience.
func RunContainment(mode kvstore.Mode, requests, attackEvery int, seed uint64) (ContainmentResult, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, 1, 64<<20)
	if err != nil {
		return ContainmentResult{}, err
	}
	srv, err := kvstore.NewServer(sys, cache, kvstore.ServerConfig{Mode: mode})
	if err != nil {
		return ContainmentResult{}, err
	}
	// Pre-warm so a native crash has real state to reload (the paper's
	// scenario: the 10 GB memcached; scaled to the quick run).
	if _, err := kvstore.Warmup(cache, 8<<20, 4096); err != nil {
		return ContainmentResult{}, err
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: seed, Keys: 2000})
	if err != nil {
		return ContainmentResult{}, err
	}
	mal := &workload.MaliciousEvery{G: gen, N: attackEvery}

	var res ContainmentResult
	res.Mode = mode.String()
	res.Requests = requests
	var h metrics.Histogram
	for i := 0; i < requests; i++ {
		req := mal.Next()
		resp := srv.Handle(i%8, req)
		if req.Malicious {
			continue
		}
		res.BenignRequests++
		if resp.Err != nil {
			res.BenignFailures++
			continue
		}
		h.ObserveDuration(resp.Latency)
	}
	st := srv.Stats()
	res.AttacksContained = st.Violations
	res.Crashes = st.Crashes
	res.DroppedInDowntime = st.Dropped
	res.BenignP99 = time.Duration(h.P99())
	return res, nil
}

// HTTPContainment drives a mixed benign/exploit request stream at the
// web server and reports the benign clients' experience.
func HTTPContainment(mode httpd.Mode, requests, attackEvery int, seed uint64) (ContainmentResult, error) {
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := httpd.NewServer(sys, httpd.Config{Mode: mode})
	if err != nil {
		return ContainmentResult{}, err
	}
	srv.HandleFunc("/", []byte("<html>home</html>"))
	srv.HandleFunc("/asset", make([]byte, 4<<20)) // restart warm-up weight
	benign := httpd.BuildRequest("GET", "/", nil)
	evil := httpd.BuildRequest("GET", "/", map[string]string{httpd.AttackHeader: "1"})

	var res ContainmentResult
	res.Mode = "httpd-" + mode.String()
	res.Requests = requests
	var h metrics.Histogram
	for i := 0; i < requests; i++ {
		attack := attackEvery > 0 && i%attackEvery == attackEvery-1
		raw := benign
		if attack {
			raw = evil
		}
		resp := srv.Serve(i%8, raw)
		if attack {
			continue
		}
		res.BenignRequests++
		if resp.Err != nil {
			res.BenignFailures++
			continue
		}
		h.ObserveDuration(resp.Latency)
	}
	st := srv.Stats()
	res.AttacksContained = st.Violations
	res.Crashes = st.Crashes
	res.DroppedInDowntime = st.Dropped
	res.BenignP99 = time.Duration(h.P99())
	return res, nil
}

func (r Runner) runE4() (*Result, error) {
	n := r.requests(50_000)
	t := metrics.NewTable("E4 — impact of malicious clients on benign clients",
		"mode", "benign reqs", "benign failures", "failure rate", "benign p99", "contained", "crashes")
	addRow := func(cr ContainmentResult) {
		t.AddRow(
			cr.Mode,
			cr.BenignRequests,
			cr.BenignFailures,
			fmt.Sprintf("%.2f%%", float64(cr.BenignFailures)/float64(cr.BenignRequests)*100),
			metrics.FormatDuration(cr.BenignP99),
			cr.AttacksContained,
			cr.Crashes,
		)
	}
	results := map[kvstore.Mode]ContainmentResult{}
	for _, mode := range []kvstore.Mode{kvstore.ModeNative, kvstore.ModeSDRaD} {
		cr, err := RunContainment(mode, n, 200, r.seed())
		if err != nil {
			return nil, err
		}
		results[mode] = cr
		addRow(cr)
	}
	httpdResults := map[httpd.Mode]ContainmentResult{}
	for _, mode := range []httpd.Mode{httpd.ModeNative, httpd.ModeSDRaD} {
		cr, err := HTTPContainment(mode, n, 200, r.seed())
		if err != nil {
			return nil, err
		}
		httpdResults[mode] = cr
		addRow(cr)
	}
	t.Caption = fmt.Sprintf("%d requests, 1 attack per 200 requests, 8 clients; paper: SDRaD limits malicious clients' impact without disrupting service", n)
	res := &Result{Table: t, Notes: "native crashes flush the request path and drop arrivals for the whole restart window"}
	nat, sd := results[kvstore.ModeNative], results[kvstore.ModeSDRaD]
	res.metric("native_benign_fail_pct", float64(nat.BenignFailures)/float64(nat.BenignRequests)*100)
	res.metric("sdrad_benign_fail_pct", float64(sd.BenignFailures)/float64(sd.BenignRequests)*100)
	res.metric("sdrad_contained", float64(sd.AttacksContained))
	res.metric("native_crashes", float64(nat.Crashes))
	hNat, hSd := httpdResults[httpd.ModeNative], httpdResults[httpd.ModeSDRaD]
	res.metric("httpd_native_benign_fail_pct", float64(hNat.BenignFailures)/float64(hNat.BenignRequests)*100)
	res.metric("httpd_sdrad_benign_fail_pct", float64(hSd.BenignFailures)/float64(hSd.BenignRequests)*100)
	return res, nil
}

// ---- E5: retrofit effort ----

// retrofitCount is one server's retrofit effort: the non-test files of
// its package that name the root sdrad package or the retrofit shell,
// and the lines in them that do.
type retrofitCount struct{ Files, Lines int }

// The two servers' retrofit effort, counted from source by
// TestRetrofitCounts (which fails, printing the new counts, when the
// code drifts from these). Constants keep sdrad-report hermetic.
var (
	kvRetrofit    = retrofitCount{Files: 6, Lines: 67}
	httpdRetrofit = retrofitCount{Files: 3, Lines: 35}
)

func (r Runner) runE5() (*Result, error) {
	// Manual-retrofit numbers reported by the SDRaD paper; the FFI
	// column counts the annotations our reproduction actually needs (one
	// Foreign registration per wrapped function). The energy columns
	// apply the development-effort model of internal/energy (§IV:
	// retrofit effort "drives up the cost of software development, both
	// in terms of money and energy consumption").
	manual := energy.DefaultDevEffortFor("manual-sdrad")
	ffiEff := energy.DefaultDevEffortFor("sdrad-ffi")
	ops := energy.DefaultDevEffortFor("replication-ops")

	t := metrics.NewTable("E5 — developer effort to retrofit resilience",
		"use case", "approach", "files changed", "wrapper LoC / annotations", "eng. hours", "effort kgCO2e")
	t.AddRow("Memcached (paper)", "manual SDRaD API", 2, "484 LoC",
		fmt.Sprintf("%.0f", manual.EngineerHours), fmt.Sprintf("%.2f", manual.KgCO2e()))
	t.AddRow("memcached-like KV (ours)", "domain-per-request", kvRetrofit.Files, fmt.Sprintf("%d LoC", kvRetrofit.Lines),
		fmt.Sprintf("%.0f", ffiEff.EngineerHours), fmt.Sprintf("%.2f", ffiEff.KgCO2e()))
	t.AddRow("tlslib via SDRaD-FFI (ours)", "Foreign registrations", 1, "3 annotations (1/function)",
		fmt.Sprintf("%.0f", ffiEff.EngineerHours), fmt.Sprintf("%.2f", ffiEff.KgCO2e()))
	t.AddRow("httpd (ours)", "domain-per-request", httpdRetrofit.Files, fmt.Sprintf("%d LoC", httpdRetrofit.Lines),
		fmt.Sprintf("%.0f", ffiEff.EngineerHours), fmt.Sprintf("%.2f", ffiEff.KgCO2e()))
	t.AddRow("replicated pair (baseline)", "deploy + failover ops", "—", "runbooks, drills",
		fmt.Sprintf("%.0f", ops.EngineerHours), fmt.Sprintf("%.2f", ops.KgCO2e()))

	sc := energy.DefaultScenario()
	saving := energy.Assess(sc, procmodel.ActivePassive{}).TotalKgCO2e() -
		energy.Assess(sc, procmodel.SDRaDRewind{ZeroOnDiscard: true}).TotalKgCO2e()
	t.Caption = fmt.Sprintf(
		"even the manual retrofit (%.1f kgCO2e of engineering) repays in <1%% of a year against the %.0f kgCO2e/yr saved vs an active-passive pair; "+
			"ours counts the non-test files and lines of internal/kvstore and internal/httpd that import or name the root sdrad package or the retrofit shell "+
			"(any identifier either declares), comments and blank lines excluded",
		manual.KgCO2e(), saving)
	res := &Result{Table: t, Notes: "the FFI bridge hides argument marshalling, domain entry, and alternate actions behind one registration per function"}
	res.metric("manual_effort_kgco2e", manual.KgCO2e())
	res.metric("ffi_effort_kgco2e", ffiEff.KgCO2e())
	res.metric("annual_saving_kgco2e", saving)
	return res, nil
}

// ---- E6: isolation mechanism micro-costs ----

// MeasuredDomainRoundTrip measures a no-op Enter/exit in virtual time.
func MeasuredDomainRoundTrip() (time.Duration, error) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
		return 0, err
	}
	const iters = 1000
	start := sys.Clock().Cycles()
	for i := 0; i < iters; i++ {
		if err := sys.Enter(1, func(*core.DomainCtx) error { return nil }); err != nil {
			return 0, err
		}
	}
	return sys.Clock().Since(start) / iters, nil
}

func (r Runner) runE6() (*Result, error) {
	measured, err := MeasuredDomainRoundTrip()
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("E6 — compartment-crossing costs by isolation mechanism",
		"mechanism", "switch", "round trip", "source")
	for _, m := range procmodel.IsolationMechanisms(vclock.DefaultCostModel()) {
		t.AddRow(m.Name, metrics.FormatDuration(m.SwitchTime), metrics.FormatDuration(m.RoundTrip), "model")
	}
	t.AddRow("sdrad-enter/exit (measured)", "—", metrics.FormatDuration(measured), "measured")
	t.Caption = "paper §IV: conventional process isolation has high context-switching costs; MPK in-process isolation is lightweight"
	res := &Result{Table: t, Notes: "the measured row includes the context snapshot and both PKRU writes of a full sdrad_enter/sdrad_exit pair"}
	for _, m := range procmodel.IsolationMechanisms(vclock.DefaultCostModel()) {
		switch m.Name {
		case "mpk-domain":
			res.metric("mpk_roundtrip_ns", float64(m.RoundTrip.Nanoseconds()))
		case "process-sandbox":
			res.metric("process_roundtrip_ns", float64(m.RoundTrip.Nanoseconds()))
		}
	}
	res.metric("measured_roundtrip_ns", float64(measured.Nanoseconds()))
	return res, nil
}

// ---- E7: energy & carbon at equal availability ----

func (r Runner) runE7() (*Result, error) {
	sc := energy.DefaultScenario()
	as := energy.AssessAll(sc, procmodel.DefaultStrategies())
	var baseline2N energy.Assessment
	for _, a := range as {
		if a.Strategy == "active-passive" {
			baseline2N = a
		}
	}
	t := metrics.NewTable("E7 — annual energy & carbon per resilience strategy (10 GB service, 3 faults/yr, 5-nines target)",
		"strategy", "servers", "availability", "meets 5-nines", "kWh/yr", "op kgCO2e", "emb kgCO2e", "total kgCO2e", "vs 2N")
	for _, a := range as {
		t.AddRow(
			a.Strategy,
			fmt.Sprintf("%.2f", a.Servers),
			avail.FormatAvailability(a.AchievedAvailability),
			a.MeetsTarget,
			fmt.Sprintf("%.0f", a.KWhPerYear),
			fmt.Sprintf("%.0f", a.OperationalKgCO2e),
			fmt.Sprintf("%.0f", a.EmbodiedKgCO2e),
			fmt.Sprintf("%.0f", a.TotalKgCO2e()),
			fmt.Sprintf("%+.1f%%", -energy.SavingsVs(a, baseline2N)*100),
		)
	}
	t.Caption = "paper §I/§IV: replication over-provisions hardware; SDRaD reaches the availability target on one server with 2–4% runtime overhead"

	// Rebound sensitivity (the paper flags rebound effects, its ref [4]):
	// how much of the projected saving survives if freed capacity is
	// partially re-consumed.
	var rewindA energy.Assessment
	for _, a := range as {
		if a.Strategy == "sdrad-rewind" {
			rewindA = a
		}
	}
	projected := baseline2N.TotalKgCO2e() - rewindA.TotalKgCO2e()
	notes := fmt.Sprintf(
		"server model: 110–350 W, PUE 1.4, 1.3 tCO2e embodied over 4 years, 350 gCO2e/kWh grid; "+
			"rebound sensitivity of the %.0f kgCO2e/yr saving vs 2N: %.0f at 30%% rebound, %.0f at 60%%, 0 at backfire",
		projected, energy.Rebound(projected, 0.3), energy.Rebound(projected, 0.6))
	res := &Result{Table: t, Notes: notes}
	res.metric("sdrad_total_kgco2e", rewindA.TotalKgCO2e())
	res.metric("twoN_total_kgco2e", baseline2N.TotalKgCO2e())
	res.metric("saving_vs_2N_pct", energy.SavingsVs(rewindA, baseline2N)*100)
	res.metric("sdrad_meets_target", boolMetric(rewindA.MeetsTarget))
	return res, nil
}

// ---- E8: serialization codec sweep ----

// CodecCost measures one FFI echo call round trip for a payload size.
type CodecCost struct {
	Codec       string
	ArgBytes    int
	WireBytes   int
	PerCallTime time.Duration
}

// MeasureCodec runs n echo calls of size argBytes through a bridge using
// the named codec and reports averaged per-call virtual time and wire
// size.
func MeasureCodec(codecName string, argBytes, n int, seed uint64) (CodecCost, error) {
	codec, err := serde.ByName(codecName)
	if err != nil {
		return CodecCost{}, err
	}
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{HeapPages: 64, MaxHeapPages: 1 << 16}); err != nil {
		return CodecCost{}, err
	}
	// Local bridge over the chosen codec.
	b, err := newBridge(sys, codec)
	if err != nil {
		return CodecCost{}, err
	}
	payload := make([]byte, argBytes)
	workload.NewRNG(seed).Bytes(payload)
	wire, err := codec.Encode([]any{payload})
	if err != nil {
		return CodecCost{}, err
	}
	start := sys.Clock().Cycles()
	for i := 0; i < n; i++ {
		if _, err := b.Call("echo", payload); err != nil {
			return CodecCost{}, err
		}
	}
	per := sys.Clock().Since(start) / time.Duration(n)
	return CodecCost{Codec: codecName, ArgBytes: argBytes, WireBytes: len(wire), PerCallTime: per}, nil
}

func (r Runner) runE8() (*Result, error) {
	n := r.requests(2_000)
	if n < 10 {
		n = 10
	}
	t := metrics.NewTable("E8 — SDRaD-FFI argument serialization codecs",
		"codec", "arg size", "wire size", "per-call time")
	measured := map[string]CodecCost{}
	for _, size := range []int{16, 256, 4096, 65536} {
		for _, codec := range []string{"raw", "binary", "json"} {
			c, err := MeasureCodec(codec, size, n, r.seed())
			if err != nil {
				return nil, err
			}
			measured[fmt.Sprintf("%s/%d", codec, size)] = c
			t.AddRow(c.Codec, c.ArgBytes, c.WireBytes, metrics.FormatDuration(c.PerCallTime))
		}
	}
	t.Caption = "paper §III: SDRaD-FFI supports arbitrary argument passing via serialization crates; cost grows with payload size and codec verbosity"
	res := &Result{Table: t, Notes: "each call encodes args, copies into the domain, decodes inside, echoes, and reverses the path"}
	res.metric("json_over_raw_time_64k", float64(measured["json/65536"].PerCallTime)/float64(measured["raw/65536"].PerCallTime))
	res.metric("json_over_raw_wire_64k", float64(measured["json/65536"].WireBytes)/float64(measured["raw/65536"].WireBytes))
	res.metric("raw_64k_us", float64(measured["raw/65536"].PerCallTime.Microseconds()))
	return res, nil
}
