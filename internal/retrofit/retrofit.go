// Package retrofit is the SDRaD shell a server is retrofitted onto: the
// part of a compartmentalized server that is the same whatever the
// server parses. kvstore and httpd each hold one Shell and keep only
// their own work — parse the untrusted bytes, apply the request to
// trusted state (the cache, the routing table), render the response.
//
// The shell owns the worker domains at a UDI range, a set fixed when
// the shell is built; the per-domain batch partition; the native
// restart model (scratch heap, restart window, dropped arrivals); the
// request counters and the classifier that sorts a failed domain run;
// the staging of request and response bytes across the domain
// boundary; and, in Shards, the aggregate half of a shard pool.
//
// Every server runs on one goroutine under its shard lock, so the shell
// is plain data: concrete types, counters as fields, no interface call,
// function value, lock or allocation on a request's path.
package retrofit

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	sdrad "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/pku"
	"repro/internal/procmodel"
	"repro/internal/vclock"
)

// Counters is a server's request accounting.
type Counters struct {
	// Requests counts every request the server was handed.
	Requests uint64
	// Violations is the number of contained memory-safety events.
	Violations uint64
	// Crashes is the number of full-process crashes (native).
	Crashes uint64
	// Dropped is the number of requests rejected without service: during
	// a native restart window, or by a server that stopped serving.
	Dropped uint64
	// Preempted is the number of requests cancelled by their context:
	// the in-domain run exhausted its deadline-derived virtual-cycle
	// budget, or the context expired before the domain was entered.
	Preempted uint64
}

// Config configures a Shell.
type Config struct {
	// Name prefixes the shell's errors ("kvstore", "httpd").
	Name string
	// Workers is the worker-domain count. 0 builds a native shell: its
	// requests run on an unprotected scratch heap and a fault crashes the
	// process.
	Workers int
	// FirstUDI is the UDI of the first worker domain; worker i is at
	// FirstUDI+i.
	FirstUDI core.UDI
	// InterArrival is the virtual time between request arrivals.
	InterArrival time.Duration
	// OnBatch, when set, observes every worker batch's resolution
	// (sdrad.Domain.OnBatch).
	OnBatch func(sdrad.BatchReport)
	// Slot is the in-domain call of a batched request: the i-th Queue of
	// a batch runs Slot(c, i). The server keeps the batch's requests by
	// position, so queueing one builds no closure.
	Slot func(c *sdrad.Ctx, i int) error
}

// Shell is the SDRaD half of one server. Create with New; not safe for
// concurrent use.
type Shell struct {
	Counters

	name         string
	sys          *core.System
	first        core.UDI
	interArrival time.Duration
	onBatch      func(sdrad.BatchReport)
	slot         func(*sdrad.Ctx, int) error

	workers []*sdrad.Domain
	scratch *alloc.Heap // native shells only
	// downUntil is the virtual cycle until which the native process is
	// restarting.
	downUntil uint64
	// stage is the reusable host-side buffer a request's bytes are loaded
	// into for the parse.
	stage []byte

	// The batch being built by Queue: per worker domain, the items and
	// their positions in the batch; verrs is RunBatch's result and gerrs
	// one group's.
	groups []group
	queued int
	verrs  []error
	gerrs  []error
	// slotFns[i] is batch slot i's call, slot(c, i): built the first
	// time a batch reaches slot i, reused by every later batch.
	slotFns []func(*sdrad.Ctx) error
}

// group is one worker domain's share of a batch.
type group struct {
	at    []int
	items []sdrad.BatchItem
}

// New builds the shell of a server on sys.
func New(sys *core.System, cfg Config) (Shell, error) {
	sh := Shell{
		name:         cfg.Name,
		sys:          sys,
		first:        cfg.FirstUDI,
		interArrival: cfg.InterArrival,
		onBatch:      cfg.OnBatch,
		slot:         cfg.Slot,
	}
	if cfg.Workers > 0 {
		return sh, sh.initWorkers(cfg.Workers)
	}
	h, err := alloc.New(sys.Mem(), pku.DefaultKey, alloc.Config{InitialPages: 8})
	if err != nil {
		return sh, fmt.Errorf("%s: scratch heap: %w", sh.name, err)
	}
	sh.scratch = h
	return sh, nil
}

// initWorkers initializes n worker domains at the UDIs from the first.
func (sh *Shell) initWorkers(n int) error {
	sup := sdrad.Attach(sh.sys)
	sh.groups = make([]group, n)
	for i := 0; i < n; i++ {
		udi := sh.first + core.UDI(i)
		if _, err := sh.sys.InitDomain(udi, core.DomainConfig{HeapPages: 8, StackPages: 4}); err != nil {
			return fmt.Errorf("%s: worker %d: %w", sh.name, i, err)
		}
		d, err := sup.DomainAt(int(udi))
		if err != nil {
			return fmt.Errorf("%s: worker %d: %w", sh.name, i, err)
		}
		d.OnBatch(sh.onBatch)
		sh.workers = append(sh.workers, d)
	}
	return nil
}

// Begin admits one request: it counts the request and spaces its
// arrival on the virtual clock. Inside a native restart window the
// request is counted dropped and Begin returns false; otherwise Begin
// charges the network round trip and returns the cycle service started.
func (sh *Shell) Begin() (uint64, bool) {
	sh.Requests++
	clk := sh.sys.Clock()
	cost := clk.Model()
	clk.AdvanceTime(sh.interArrival)
	if clk.Cycles() < sh.downUntil {
		sh.Dropped++
		return 0, false
	}
	start := clk.Cycles()
	clk.Advance(2 * cost.Syscall)
	return start, true
}

// Drop counts n requests refused without service (a server that
// stopped serving).
func (sh *Shell) Drop(n int) {
	sh.Requests += uint64(n)
	sh.Dropped += uint64(n)
}

// BeginBatch admits n requests that arrived together: it counts them,
// spaces their arrivals, charges one network round trip for all of
// them, and returns the cycle service started. There is no restart
// window to check: only worker-domain servers batch.
func (sh *Shell) BeginBatch(n int) uint64 {
	sh.Requests += uint64(n)
	clk := sh.sys.Clock()
	cost := clk.Model()
	clk.AdvanceTime(time.Duration(n) * sh.interArrival)
	start := clk.Cycles()
	clk.Advance(2 * cost.Syscall)
	return start
}

// Since returns the virtual time elapsed since cycle start.
func (sh *Shell) Since(start uint64) time.Duration {
	clk := sh.sys.Clock()
	return vclock.CyclesToDuration(clk.Cycles()-start, clk.Model().CPUHz)
}

// Do runs fn in client clientID's worker domain; ctx's deadline bounds
// the run with a virtual-cycle budget. A nil ctx (a BatchRequest's
// default) means no deadline.
func (sh *Shell) Do(ctx context.Context, clientID int, fn func(*sdrad.Ctx) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return sh.workers[clientID%len(sh.workers)].Do(ctx, fn)
}

// Queue adds the next call to the batch RunBatch runs next: the i-th
// Queue since the last RunBatch runs Config.Slot(c, i) in client
// clientID's worker domain, under ctx (nil means no deadline).
func (sh *Shell) Queue(ctx context.Context, clientID int) {
	if i := sh.queued; i == len(sh.slotFns) {
		sh.slotFns = append(sh.slotFns, func(c *sdrad.Ctx) error { return sh.slot(c, i) })
	}
	g := &sh.groups[clientID%len(sh.workers)]
	g.at = append(g.at, sh.queued)
	g.items = append(g.items, sdrad.BatchItem{Ctx: ctx, Fn: sh.slotFns[sh.queued]})
	sh.queued++
}

// RunBatch runs the queued calls, partitioned by worker domain (stably):
// each domain's calls share one entry and one integrity sweep
// (Domain.AppendBatchItems; a faulting group re-derives its outcomes
// serially, so each call's result matches a serial Do). It returns each
// call's error in the order queued, in a slice that is the shell's until
// the next RunBatch.
func (sh *Shell) RunBatch() []error {
	clear(sh.verrs)
	sh.verrs = slices.Grow(sh.verrs[:0], sh.queued)[:sh.queued]
	for w := range sh.groups {
		g := &sh.groups[w]
		if len(g.items) == 0 {
			continue
		}
		sh.gerrs = sh.workers[w].AppendBatchItems(sh.gerrs[:0], g.items)
		for k, err := range sh.gerrs {
			sh.verrs[g.at[k]] = err
		}
		clear(sh.gerrs)
		clear(g.items)
		g.items, g.at = g.items[:0], g.at[:0]
	}
	sh.queued = 0
	return sh.verrs
}

// Outcome is how a failed domain run ended, as Classify sorts it.
type Outcome uint8

// Outcomes of a failed domain run.
const (
	// Failed is any error that is neither a detection nor a preemption.
	Failed Outcome = iota
	// Contained is a memory-safety violation: the worker domain was
	// rewound and discarded, and only the offending request fails.
	Contained
	// Preempted is a run that blew its deadline-derived cycle budget (and
	// was rewound), or whose context expired before the domain was
	// entered — e.g. the request sat queued behind a busy shard.
	Preempted
)

// Classify sorts a failed run and counts it: a violation is contained, a
// budget error or a context deadline/cancellation is preempted, anything
// else failed. It returns the error the client sees — the typed
// violation or budget error, else err itself. Call it only when the run
// returned an error; it allocates nothing.
func (sh *Shell) Classify(err error) (Outcome, error) {
	if v, ok := core.IsViolation(err); ok {
		sh.Violations++
		return Contained, v
	}
	if b, ok := core.IsBudget(err); ok {
		sh.Preempted++
		return Preempted, b
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		sh.Preempted++
		return Preempted, err
	}
	return Failed, err
}

// Stage copies raw into a fresh size-byte block of the running worker
// domain's heap and loads it back into the shell's host-side staging
// buffer: the untrusted bytes a request's parse reads. It returns the
// block, for the caller to free, and the buffer, which the next request
// reuses.
func (sh *Shell) Stage(c *sdrad.Ctx, size int, raw []byte) (sdrad.Addr, []byte) {
	buf := c.MustAlloc(size)
	c.MustStore(buf, raw)
	tmp := sh.buffer(len(raw))
	c.MustLoad(buf, tmp)
	return buf, tmp
}

// StageNative is Stage on the native scratch heap, with the full rights
// of an unprotected process. Free the block with Unstage unless the
// request crashed the process (Crash resets the heap).
func (sh *Shell) StageNative(size int, raw []byte) (sdrad.Addr, []byte, error) {
	buf, err := sh.scratch.Alloc(size)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: scratch alloc: %w", sh.name, err)
	}
	m := sh.sys.Mem()
	if err := m.StoreBytes(pku.PKRUAllowAll, buf, raw); err != nil {
		return 0, nil, fmt.Errorf("%s: scratch store: %w", sh.name, err)
	}
	tmp := sh.buffer(len(raw))
	if err := m.LoadBytes(pku.PKRUAllowAll, buf, tmp); err != nil {
		return 0, nil, fmt.Errorf("%s: scratch load: %w", sh.name, err)
	}
	return buf, tmp, nil
}

// Unstage frees a block StageNative returned.
func (sh *Shell) Unstage(buf sdrad.Addr) error {
	if err := sh.scratch.Free(buf); err != nil {
		return fmt.Errorf("%s: scratch free: %w", sh.name, err)
	}
	return nil
}

// buffer returns the shell's reusable n-byte staging buffer.
func (sh *Shell) buffer(n int) []byte {
	if cap(sh.stage) < n {
		sh.stage = make([]byte, n)
	}
	return sh.stage[:n]
}

// StageReply copies data into a fresh size-byte block of client
// clientID's worker domain and frees it: the response crossing into the
// connection's output buffer, which belongs to the worker domain. This
// copy exists only in SDRaD mode and is the dominant component of the
// paper's 2–4% overhead.
func (sh *Shell) StageReply(clientID, size int, data []byte) error {
	d := sh.workers[clientID%len(sh.workers)]
	out, err := d.Alloc(size)
	if err == nil {
		err = d.Write(out, data)
	}
	if err == nil {
		err = d.Free(out)
	}
	if err != nil {
		return fmt.Errorf("%s: response staging: %w", sh.name, err)
	}
	return nil
}

// Crash models a native fault: the process dies and restarts, which
// takes the full restart time of a process holding stateBytes of state
// (procmodel.ProcessRestart); requests arriving in that window are
// dropped (see Begin). The scratch heap is reset — the dying process
// loses its transient state. Crash returns the restart time, for the
// server's error text.
func (sh *Shell) Crash(stateBytes uint64) (time.Duration, error) {
	sh.Crashes++
	clk := sh.sys.Clock()
	restart := procmodel.ProcessRestart{Cost: clk.Model()}.RecoveryTime(stateBytes)
	sh.downUntil = clk.Cycles() + vclock.DurationToCycles(restart, clk.Model().CPUHz)
	return restart, sh.scratch.ResetNoZero()
}
