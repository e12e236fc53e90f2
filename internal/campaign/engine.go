package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attackgen"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gateway"
	"repro/internal/serde"
	"repro/internal/workload"
)

// ErrRejected tags payloads the in-domain parser or codec refused —
// the benign failure mode malformed input must take (as opposed to a
// detection or a supervisor panic).
var ErrRejected = errors.New("campaign: payload rejected")

// budgetCycles is the per-request budget for FaultBudget requests. The
// burn loop below consumes far more, so the preemption is certain
// regardless of per-worker heap state.
const budgetCycles = 50_000

// subseed derives an independent, deterministic PRNG seed for one named
// stream of one scenario, so workload bytes, fault schedule, dispatch,
// and corruption never share draws (a benign run consumes exactly the
// same workload stream as an attacked one).
func subseed(seed uint64, scenario, stream string) uint64 {
	d := newDigest()
	d.str(scenario)
	d.str(stream)
	return seed ^ d.h
}

// schedule draws the fault interleave: each request is malicious with
// probability 1/AttackEvery, and the class is drawn uniformly from the
// scenario's fault set. Both draws come from a dedicated PRNG stream.
type schedule struct {
	rng    *workload.RNG
	faults []FaultClass
	every  int
}

func newSchedule(sc Scenario, seed uint64) *schedule {
	return &schedule{
		rng:    workload.NewRNG(subseed(seed, sc.Name, "schedule")),
		faults: sc.Faults,
		every:  sc.AttackEvery,
	}
}

func (s *schedule) next() FaultClass {
	if s.every <= 0 || len(s.faults) == 0 {
		return FaultNone
	}
	if s.rng.Intn(s.every) != 0 {
		return FaultNone
	}
	return s.faults[s.rng.Intn(len(s.faults))]
}

// injectFault performs the in-domain half of a fault class. Malformed
// payloads are handled before entry (they corrupt the request bytes);
// everything else happens here, after the parse, like a bug triggered
// by crafted input.
func injectFault(c *core.DomainCtx, fc FaultClass) {
	switch fc {
	case FaultUAF:
		fault.Inject(c, fault.UseAfterFree, 0)
	case FaultHeapOverflow:
		fault.Inject(c, fault.HeapOverflow, 0)
	case FaultFreedHeaderSmash:
		fault.Inject(c, fault.FreedHeaderSmash, 0)
	case FaultCrash:
		fault.Inject(c, fault.Crash, 0)
	case FaultBudget:
		// Model a runaway request: loop loads until the budget preempts.
		// 100k loads ≫ budgetCycles, so this never returns normally.
		p := c.MustAlloc(64)
		for i := 0; i < 100_000; i++ {
			_ = c.MustLoad64(p)
		}
		c.MustFree(p)
	}
}

// classify maps an Exec error to a trace outcome.
func classify(err error) (outcome, mech string) {
	switch {
	case err == nil:
		return OutcomeOK, ""
	case errors.Is(err, ErrRejected):
		return OutcomeRejected, ""
	}
	if _, ok := core.IsBudget(err); ok {
		return OutcomePreempted, ""
	}
	if v, ok := core.IsViolation(err); ok {
		return OutcomeDetected, v.Mechanism.String()
	}
	return OutcomeError, ""
}

// preparedCall is one request after its workload draws: the in-domain
// function (with its cycle budget) and the trusted-side completion.
// Splitting prepare from finish lets the wave loop draw a whole wave of
// requests in schedule order, execute them grouped per worker, and then
// apply outcomes in arrival order — consuming exactly the PRNG streams
// and survivor-state transitions of a wave of one.
type preparedCall struct {
	// budget is the per-request virtual-cycle budget (0 = none).
	budget uint64
	// fn is the in-domain half of the request.
	fn func(*core.DomainCtx) error
	// finish classifies the execution outcome and, on OutcomeOK, applies
	// the request to the adapter's survivor state. Must be called in
	// request order.
	finish func(err error) RequestOutcome
}

// adapter is one workload's per-request driver plus its trusted survivor
// state.
type adapter interface {
	// prepare draws request i for worker w with fault class fc from the
	// workload streams and returns its prepared call. Stream consumption
	// happens here, so prepare must be called in request order.
	prepare(w, i int, fc FaultClass) *preparedCall
	// digest fingerprints the survivor state.
	digest() string
}

func newAdapter(sc Scenario, seed uint64) (adapter, error) {
	switch sc.Workload {
	case WorkloadKV:
		gen, err := workload.NewKV(workload.KVConfig{
			Seed: subseed(seed, sc.Name, "workload"), Keys: 512, ValueSize: 64,
		})
		if err != nil {
			return nil, err
		}
		return &kvAdapter{
			gen:   gen,
			corr:  attackgen.NewCorruptor(subseed(seed, sc.Name, "corrupt")),
			items: make(map[string][]byte),
		}, nil
	case WorkloadHTTP:
		gen, err := workload.NewHTTP(workload.HTTPConfig{
			Seed: subseed(seed, sc.Name, "workload"), Paths: 64,
		})
		if err != nil {
			return nil, err
		}
		a := &httpAdapter{
			gen:    gen,
			corr:   attackgen.NewCorruptor(subseed(seed, sc.Name, "corrupt")),
			routes: make(map[string]bool, 32),
			status: make(map[int]uint64),
			body:   newDigest(),
		}
		// Half the path population resolves; the rest 404s.
		for i := 0; i < 32; i++ {
			a.routes[workload.Path(i)] = true
		}
		return a, nil
	case WorkloadFFI:
		name := sc.Codec
		if name == "" {
			name = "binary"
		}
		codec, err := serde.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
		return &ffiAdapter{
			rng:   workload.NewRNG(subseed(seed, sc.Name, "workload")),
			corr:  attackgen.NewCorruptor(subseed(seed, sc.Name, "corrupt")),
			codec: codec,
			sum:   newDigest(),
		}, nil
	default:
		return nil, fmt.Errorf("campaign: unknown workload %v", sc.Workload)
	}
}

// stageBuf is the shared host-side staging helper (one buffer per
// adapter; the engine is single-goroutine).
type stageBuf struct{ buf []byte }

func (s *stageBuf) stage(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	return s.buf[:n]
}

// ---- kv workload ----

// kvAdapter drives memcached-text commands through the domain parser and
// applies clean ones to a trusted survivor cache (plain host map: the
// analogue of kvstore.Cache living in root-protected memory).
type kvAdapter struct {
	stageBuf
	gen  *workload.KVGenerator
	corr *attackgen.Corruptor

	items  map[string][]byte
	hits   uint64
	misses uint64
	sets   uint64
	dels   uint64
}

// ParseKV parses one complete memcached-text command from b. It mirrors
// kvstore.ReadCommand's grammar (get/gets, set with a length-prefixed
// data block, delete) as a pure function over in-domain bytes, with one
// deliberate difference: b must hold exactly one command (ReadCommand
// reads from a stream and tolerates trailing bytes). The kvstore
// package's differential test pins the two parsers to each other.
func ParseKV(b []byte) (op workload.Op, key string, value []byte, ok bool) {
	head, rest, found := bytes.Cut(b, []byte("\r\n"))
	if !found {
		return 0, "", nil, false
	}
	fields := strings.Fields(string(head))
	if len(fields) == 0 {
		return 0, "", nil, false
	}
	switch fields[0] {
	case "get", "gets":
		if len(fields) != 2 || len(rest) != 0 {
			return 0, "", nil, false
		}
		return workload.OpGet, fields[1], nil, true
	case "delete":
		if len(fields) != 2 || len(rest) != 0 {
			return 0, "", nil, false
		}
		return workload.OpDelete, fields[1], nil, true
	case "set":
		if len(fields) != 5 {
			return 0, "", nil, false
		}
		if _, err := strconv.ParseUint(fields[2], 10, 32); err != nil {
			return 0, "", nil, false
		}
		if exp, err := strconv.Atoi(fields[3]); err != nil || exp < 0 {
			return 0, "", nil, false
		}
		// 1<<20 mirrors kvstore.MaxValueSize (the differential test pins
		// the two).
		n, err := strconv.Atoi(fields[4])
		if err != nil || n < 0 || n > 1<<20 {
			return 0, "", nil, false
		}
		if len(rest) != n+2 || rest[n] != '\r' || rest[n+1] != '\n' {
			return 0, "", nil, false
		}
		return workload.OpSet, fields[1], rest[:n], true
	default:
		return 0, "", nil, false
	}
}

func (a *kvAdapter) prepare(w, i int, fc FaultClass) *preparedCall {
	req := a.gen.Next()
	payload := workload.RenderKVText(req)
	if fc == FaultMalformedPayload {
		payload, _ = a.corr.Corrupt(payload)
	}
	var budget uint64
	if fc == FaultBudget {
		budget = budgetCycles
	}
	var op workload.Op
	var key string
	var value []byte
	return &preparedCall{
		budget: budget,
		fn: func(c *core.DomainCtx) error {
			buf := c.MustAlloc(len(payload) + 1)
			c.MustStore(buf, payload)
			tmp := a.stage(len(payload))
			c.MustLoad(buf, tmp)
			var ok bool
			op, key, value, ok = ParseKV(tmp)
			if ok {
				// Copy out: tmp aliases the reusable staging buffer, which
				// the next call of a batch overwrites before finish runs.
				value = append([]byte(nil), value...)
			}
			injectFault(c, fc)
			c.MustFree(buf)
			if !ok {
				return ErrRejected
			}
			return nil
		},
		finish: func(err error) RequestOutcome {
			outcome, mech := classify(err)
			if outcome == OutcomeOK {
				a.apply(op, key, value)
			}
			return RequestOutcome{I: i, W: w, Fault: fc.String(), Outcome: outcome, Mech: mech}
		},
	}
}

func (a *kvAdapter) apply(op workload.Op, key string, value []byte) {
	switch op {
	case workload.OpSet:
		a.items[key] = value
		a.sets++
	case workload.OpDelete:
		delete(a.items, key)
		a.dels++
	default:
		if _, ok := a.items[key]; ok {
			a.hits++
		} else {
			a.misses++
		}
	}
}

func (a *kvAdapter) digest() string {
	keys := make([]string, 0, len(a.items))
	for k := range a.items {
		keys = append(keys, k)
	}
	// Deterministic order: host map iteration is randomized.
	sort.Strings(keys)
	d := newDigest()
	for _, k := range keys {
		d.str(k)
		d.bytes(a.items[k])
		d.bytes([]byte{0})
	}
	d.u64(a.hits)
	d.u64(a.misses)
	d.u64(a.sets)
	d.u64(a.dels)
	return d.hex()
}

// ---- http workload ----

// httpAdapter drives HTTP/1.1 request heads through the domain parser
// and routes clean ones against a trusted table, tallying statuses.
type httpAdapter struct {
	stageBuf
	gen  *workload.HTTPGenerator
	corr *attackgen.Corruptor

	routes map[string]bool
	status map[int]uint64
	body   *digest // rolling (path, status) stream fingerprint
	served uint64
}

// Parser limits mirrored from internal/httpd (which the engine cannot
// import — httpd depends on the root package that re-exports this
// engine); the httpd package's differential test pins them together.
const (
	maxRequestLine = 4096
	maxHeaders     = 100
	maxHeaderLine  = 4096
)

// ParseHTTP validates an HTTP/1.1 request head and extracts the method
// and path, mirroring httpd's strict parser (including its line and
// header-count limits) as a pure function over in-domain bytes.
func ParseHTTP(b []byte) (method, path string, ok bool) {
	text := string(b)
	head, _, found := strings.Cut(text, "\r\n\r\n")
	if !found {
		return "", "", false
	}
	lines := strings.Split(head, "\r\n")
	if len(lines[0]) > maxRequestLine {
		return "", "", false
	}
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 {
		return "", "", false
	}
	method, path, proto := parts[0], parts[1], parts[2]
	if method == "" || !strings.HasPrefix(path, "/") || !strings.HasPrefix(proto, "HTTP/") {
		return "", "", false
	}
	if len(lines)-1 > maxHeaders {
		return "", "", false
	}
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		if len(ln) > maxHeaderLine {
			return "", "", false
		}
		name, _, found := strings.Cut(ln, ":")
		if !found || name == "" {
			return "", "", false
		}
	}
	return method, path, true
}

func (a *httpAdapter) prepare(w, i int, fc FaultClass) *preparedCall {
	req := a.gen.Next()
	raw := req.Raw
	if fc == FaultMalformedPayload {
		raw, _ = a.corr.Corrupt(raw)
	}
	var budget uint64
	if fc == FaultBudget {
		budget = budgetCycles
	}
	var method, path string
	return &preparedCall{
		budget: budget,
		fn: func(c *core.DomainCtx) error {
			buf := c.MustAlloc(len(raw) + 1)
			c.MustStore(buf, raw)
			tmp := a.stage(len(raw))
			c.MustLoad(buf, tmp)
			var ok bool
			method, path, ok = ParseHTTP(tmp)
			injectFault(c, fc)
			c.MustFree(buf)
			if !ok {
				return ErrRejected
			}
			return nil
		},
		finish: func(err error) RequestOutcome {
			outcome, mech := classify(err)
			if outcome == OutcomeOK {
				a.routeAndTally(method, path)
			}
			return RequestOutcome{I: i, W: w, Fault: fc.String(), Outcome: outcome, Mech: mech}
		},
	}
}

func (a *httpAdapter) routeAndTally(method, path string) {
	status := 200
	switch {
	case method != "GET" && method != "HEAD":
		status = 405
	case !a.routes[path]:
		status = 404
	}
	a.status[status]++
	a.served++
	a.body.str(path)
	a.body.u64(uint64(status))
}

func (a *httpAdapter) digest() string {
	d := newDigest()
	for _, code := range []int{200, 404, 405} {
		d.u64(uint64(code))
		d.u64(a.status[code])
	}
	d.u64(a.served)
	d.u64(a.body.h)
	return d.hex()
}

// ---- ffi workload ----

// ffiAdapter round-trips codec-serialized argument vectors through the
// domain — the SDRaD-FFI transfer path — and folds the decoded values
// into a running checksum (the survivor state).
type ffiAdapter struct {
	stageBuf
	rng   *workload.RNG
	corr  *attackgen.Corruptor
	codec serde.Codec

	calls uint64
	sum   *digest
}

func (a *ffiAdapter) prepare(w, i int, fc FaultClass) *preparedCall {
	// Strings only, so every codec (including raw) carries the vector.
	args := []any{
		fmt.Sprintf("op-%04d", a.rng.Intn(1000)),
		fmt.Sprintf("%016x", a.rng.Uint64()),
	}
	payload, eerr := a.codec.Encode(args)
	if eerr != nil {
		// Codec encode of strings cannot fail; treat as engine error.
		return &preparedCall{
			fn: func(*core.DomainCtx) error { return nil },
			finish: func(error) RequestOutcome {
				return RequestOutcome{I: i, W: w, Fault: fc.String(), Outcome: OutcomeError}
			},
		}
	}
	if fc == FaultMalformedPayload {
		payload, _ = a.corr.Corrupt(payload)
	}
	var budget uint64
	if fc == FaultBudget {
		budget = budgetCycles
	}
	var vals []string
	return &preparedCall{
		budget: budget,
		fn: func(c *core.DomainCtx) error {
			buf := c.MustAlloc(len(payload) + 1)
			c.MustStore(buf, payload)
			tmp := a.stage(len(payload))
			c.MustLoad(buf, tmp)
			decoded, derr := a.codec.Decode(tmp)
			injectFault(c, fc)
			c.MustFree(buf)
			if derr != nil {
				return fmt.Errorf("%w: %v", ErrRejected, derr)
			}
			// Render inside the call: decoded values of the raw codec
			// alias the staging buffer, which the next call of a batch
			// reuses before finish runs.
			vals = vals[:0]
			for _, v := range decoded {
				vals = append(vals, fmt.Sprintf("%T:%v", v, v))
			}
			return nil
		},
		finish: func(err error) RequestOutcome {
			outcome, mech := classify(err)
			if outcome == OutcomeOK {
				a.calls++
				a.sum.u64(uint64(len(vals)))
				for _, s := range vals {
					a.sum.str(s)
				}
			}
			return RequestOutcome{I: i, W: w, Fault: fc.String(), Outcome: outcome, Mech: mech}
		},
	}
}

func (a *ffiAdapter) digest() string {
	d := newDigest()
	d.u64(a.calls)
	d.u64(a.sum.h)
	return d.hex()
}

// ---- engine ----

// Run executes every scenario in cfg against executors provisioned by
// factory and returns the campaign trace, drawing each scenario's
// requests in waves of cfg.Batch (1 = serial). It is a pure function of
// (cfg, factory behavior): same seed, same trace bytes.
func Run(cfg Config, factory ExecutorFactory) (*Trace, error) {
	return runCampaign(cfg, factory, false)
}

// runCampaign is Run, optionally replaying every scenario under the
// canonical grow/shrink schedule (resize.go) — the resize oracle's run.
func runCampaign(cfg Config, factory ExecutorFactory, resized bool) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Seed: cfg.Seed, Workers: cfg.Workers, Requests: cfg.Requests}
	for _, sc := range cfg.Scenarios {
		st, err := runScenario(sc, cfg, factory, resized)
		if err != nil {
			return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
		}
		tr.Scenarios = append(tr.Scenarios, st)
	}
	return tr, nil
}

func scenarioRequests(sc Scenario, cfg Config) int {
	if sc.Requests > 0 {
		return sc.Requests
	}
	return cfg.Requests
}

// withExecutor provisions one executor, hands it to body, and closes
// it. A teardown failure is a finding, not noise: an executor that
// cannot close cleanly after a run invalidates the run.
func withExecutor(factory ExecutorFactory, target Target, workers int, run string, body func(Executor) error) (err error) {
	ex, err := factory(target, workers)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := ex.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("campaign: closing %s executor after %q: %w", target, run, cerr)
		}
	}()
	return body(ex)
}

// stream is one seeded arrival source: an adapter (workload draws and
// survivor state), its fault schedule, and its worker dispatch, all
// keyed by one (pseudo-)scenario name. A plain scenario is one stream;
// a gateway scenario is one per tenant.
type stream struct {
	// name is the tenant the gateway admits the stream's arrivals as.
	name     string
	ad       adapter
	sched    *schedule
	dispatch *workload.RNG
	arrivals int
}

func newStream(sc Scenario, seed uint64) (*stream, error) {
	ad, err := newAdapter(sc, seed)
	if err != nil {
		return nil, err
	}
	return &stream{
		ad:       ad,
		sched:    newSchedule(sc, seed),
		dispatch: workload.NewRNG(subseed(seed, sc.Name, "dispatch")),
	}, nil
}

// waves is the campaign's one request loop. Requests are drawn in
// arrival order into waves of batch; a resize step ends a wave early,
// so a resize always lands between waves. Each arrival is admitted
// through the gateway if there is one, otherwise always. The wave then
// executes grouped per worker — ExecBatch when the executor batches and
// the window is longer than 1, Exec otherwise — and completes in
// arrival order. A wave of one draws and executes exactly as a serial
// loop would, so serial runs need no loop of their own.
type waves struct {
	ex Executor
	// workers is the dispatch key space: the configured worker count,
	// whatever the live count is after a resize.
	workers int
	batch   int
	// resize is the grow/shrink schedule (nil = fixed size).
	resize *resizer
	// gw admits arrivals (nil = every arrival is admitted).
	gw *gateway.Gateway
	// next returns arrival i's stream, or nil when its slot stays empty.
	next func(i int) *stream
	// done receives every arrival's outcome, in arrival order.
	done func(s *stream, out RequestOutcome)
}

// arrival is one drawn request of a wave.
type arrival struct {
	s  *stream
	i  int
	w  int
	fc FaultClass
	pc *preparedCall
	tk *gateway.Ticket
	// rejected is the admission outcome ("" = admitted).
	rejected string
	err      error
}

// run drives n arrivals through the loop.
func (l *waves) run(n int) error {
	bex, batchable := l.ex.(BatchExecutor)
	for base := 0; base < n; {
		if err := l.resize.before(base); err != nil {
			return err
		}
		end := l.resize.cut(min(base+l.batch, n))
		// Draw and admit in arrival order: stream consumption and every
		// admission decision are a pure function of the arrival sequence,
		// whatever the wave shape.
		wave := make([]arrival, 0, end-base)
		for i := base; i < end; i++ {
			s := l.next(i)
			if s == nil {
				continue
			}
			s.arrivals++
			a := arrival{s: s, i: i, fc: s.sched.next()}
			a.w = s.dispatch.Intn(l.workers)
			// Draw-and-discard: the workload stream advances on every
			// arrival, admitted or not, so a stream's position depends only
			// on its own arrival count.
			a.pc = s.ad.prepare(a.w, i, a.fc)
			if l.gw != nil {
				tk, err := l.gw.Admit(s.name)
				if err != nil {
					a.rejected = admissionOutcome(err)
					if a.rejected == OutcomeError {
						return fmt.Errorf("arrival %d (tenant %s): unexpected admission error: %w", i, s.name, err)
					}
				}
				a.tk = tk
			}
			wave = append(wave, a)
		}
		// Execute admitted calls grouped per worker (stable partition):
		// each group is one coalesced batch on that worker's machine.
		if batchable && end-base > 1 {
			groups := make([][]int, l.workers)
			for j, a := range wave {
				if a.rejected == "" {
					groups[a.w] = append(groups[a.w], j)
				}
			}
			for w, idxs := range groups {
				if len(idxs) == 0 {
					continue
				}
				calls := make([]BatchCall, len(idxs))
				for k, j := range idxs {
					calls[k] = BatchCall{Budget: wave[j].pc.budget, Fn: wave[j].pc.fn}
				}
				for k, err := range bex.ExecBatch(w, calls) {
					wave[idxs[k]].err = err
				}
			}
		} else {
			for j := range wave {
				if a := &wave[j]; a.rejected == "" {
					a.err = l.ex.Exec(a.w, a.pc.budget, a.pc.fn)
				}
			}
		}
		// Complete in arrival order: survivor state and the gateway's
		// detection windows evolve exactly as the arrival sequence says.
		for _, a := range wave {
			out := RequestOutcome{I: a.i, W: a.w, Fault: a.fc.String(), Outcome: a.rejected}
			if a.rejected == "" {
				out = a.pc.finish(a.err)
				if a.tk != nil {
					a.tk.Done(out.Outcome == OutcomeDetected, out.Outcome == OutcomePreempted)
				}
				if out.Outcome == OutcomeError {
					return fmt.Errorf("request %d (worker %d, fault %q) failed unexpectedly", out.I, out.W, out.Fault)
				}
			}
			l.done(a.s, out)
		}
		base = end
	}
	return nil
}

// runScenario runs one plain scenario: a single arrival stream through
// the wave loop, optionally under the canonical resize schedule.
func runScenario(sc Scenario, cfg Config, factory ExecutorFactory, resized bool) (ScenarioTrace, error) {
	s, err := newStream(sc, cfg.Seed)
	if err != nil {
		return ScenarioTrace{}, err
	}
	n := scenarioRequests(sc, cfg)
	st := ScenarioTrace{
		Scenario: sc.Name,
		Workload: sc.Workload.String(),
		Target:   sc.Target.String(),
		Requests: n,
		Outcomes: make([]RequestOutcome, 0, n),
	}
	err = withExecutor(factory, sc.Target, cfg.Workers, sc.Name, func(ex Executor) error {
		l := waves{ex: ex, workers: cfg.Workers, batch: cfg.Batch,
			next: func(int) *stream { return s },
			done: func(_ *stream, out RequestOutcome) {
				st.Outcomes = append(st.Outcomes, out)
				switch out.Outcome {
				case OutcomeOK:
					st.OK++
				case OutcomeRejected:
					st.Rejected++
				case OutcomePreempted:
					st.Preemptions++
				}
			},
		}
		if resized {
			var err error
			if l.resize, err = newResizer(ex, n); err != nil {
				return err
			}
		}
		if err := l.run(n); err != nil {
			return err
		}
		st.Detections = ex.Detections()
		//lint:detorder commutative uint64 sum; iteration order cannot change the total
		for _, v := range st.Detections {
			st.DetectionTotal += v
		}
		st.Rewinds = ex.Rewinds()
		st.VirtualCycles = ex.VirtualCycles()
		return nil
	})
	if err != nil {
		return ScenarioTrace{}, err
	}
	st.SurvivorDigest = s.ad.digest()
	return st, nil
}

// replayBenign re-executes a benign scenario through a bare loop with
// none of the engine's bookkeeping — no schedule draws, no waves, no
// outcome records — and returns the executor's virtual cycles and the
// survivor digest. The benign oracle compares these against the
// campaign run to prove the wave loop adds no hidden virtual cost, which
// is why this loop stays separate from it.
func replayBenign(sc Scenario, cfg Config, factory ExecutorFactory) (cycles uint64, dig string, err error) {
	cfg = cfg.withDefaults()
	if !sc.Benign() {
		return 0, "", fmt.Errorf("campaign: replay of non-benign scenario %q", sc.Name)
	}
	ad, err := newAdapter(sc, cfg.Seed)
	if err != nil {
		return 0, "", err
	}
	dispatch := workload.NewRNG(subseed(cfg.Seed, sc.Name, "dispatch"))
	n := scenarioRequests(sc, cfg)
	err = withExecutor(factory, sc.Target, cfg.Workers, "replay of "+sc.Name, func(ex Executor) error {
		for i := 0; i < n; i++ {
			w := dispatch.Intn(cfg.Workers)
			pc := ad.prepare(w, i, FaultNone)
			if pc.finish(ex.Exec(w, pc.budget, pc.fn)).Outcome == OutcomeError {
				return fmt.Errorf("campaign: replay request %d failed", i)
			}
		}
		cycles = ex.VirtualCycles()
		return nil
	})
	if err != nil {
		return 0, "", err
	}
	return cycles, ad.digest(), nil
}
