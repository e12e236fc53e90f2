package kvstore

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	sdrad "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/persist"
	"repro/internal/retrofit"
	"repro/internal/workload"
)

// Mode selects the resilience strategy of a Server.
type Mode uint8

// Server modes.
const (
	// ModeNative runs request handling unprotected: a triggered memory
	// bug crashes the process, which restarts (taking the full
	// state-dependent restart time during which the service is down).
	ModeNative Mode = iota + 1
	// ModeSDRaD runs request handling inside worker domains with secure
	// rewind and discard; a rewind discards one request.
	ModeSDRaD
	// ModeSandbox runs request handling in a separate sandbox process
	// (conventional process isolation): faults are contained like SDRaD,
	// but every request pays two context switches plus IPC — the high
	// compartment-crossing cost §IV contrasts with MPK.
	ModeSandbox
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeSDRaD:
		return "sdrad"
	case ModeSandbox:
		return "sandbox"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ErrUnavailable is the client-visible failure while the native server is
// restarting.
var ErrUnavailable = errors.New("kvstore: service unavailable (restarting)")

// ErrShardFailed is the client-visible failure after a durable shard's
// group commit failed. The failed batch's mutations were nacked but had
// already reached the in-memory cache, so the shard fail-stops: serving
// on (and in particular snapshotting) would leak unacknowledged writes
// into reads and into durable state. Recovery from disk yields exactly
// the acknowledged prefix.
var ErrShardFailed = errors.New("kvstore: durability failed; shard stopped serving")

// ErrDrained is the client-visible failure after a graceful drain
// completed: the shard flushed, snapshotted, and released its store, and
// by the drain contract no request admitted afterwards may execute (its
// ack could not be made durable).
var ErrDrained = errors.New("kvstore: drained; shard stopped accepting requests")

// ServerConfig configures a Server.
type ServerConfig struct {
	// Mode selects native vs SDRaD operation.
	Mode Mode
	// Workers is the number of worker domains in SDRaD mode (default
	// 4). A client's requests run on worker client id mod Workers.
	Workers int
	// FirstWorkerUDI is the UDI of the first worker domain (default 10).
	FirstWorkerUDI core.UDI
	// MaliciousKind is the bug class malicious requests trigger (default
	// HeapOverflow).
	MaliciousKind fault.Kind
	// InterArrival is the virtual time between request arrivals, used to
	// model load during downtime windows (default 100µs ≈ 10k req/s).
	InterArrival time.Duration
	// Persist enables durable persistence (nil or an empty Dir keeps
	// today's memory-only behavior). See PersistConfig.
	Persist *PersistConfig
}

func (c *ServerConfig) fill() {
	if c.Mode == 0 {
		c.Mode = ModeSDRaD
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.FirstWorkerUDI == 0 {
		c.FirstWorkerUDI = 10
	}
	if c.MaliciousKind == 0 {
		c.MaliciousKind = fault.HeapOverflow
	}
	if c.InterArrival <= 0 {
		c.InterArrival = 100 * time.Microsecond
	}
}

// Response is the outcome of one request.
type Response struct {
	// OK reports application-level success (hit for GET, stored for SET,
	// found for DELETE).
	OK bool
	// Value is the GET result (nil on miss).
	Value []byte
	// Err is the client-visible failure, if any.
	Err error
	// Flags is the stored flags word for GET hits.
	Flags uint32
	// Latency is the virtual service time of the request.
	Latency time.Duration
	// Contained reports that a triggered memory bug was contained by a
	// domain rewind (SDRaD mode only).
	Contained bool
}

// Server is the memcached-like server. Create with NewServer. Not safe
// for concurrent use (the simulation is single-core).
type Server struct {
	sys   *core.System
	cache *Cache
	cfg   ServerConfig
	// shell owns the worker domains (SDRaD), the scratch heap and restart
	// window (native, sandbox), and the request counters.
	shell retrofit.Shell
	// staged is HandleBatch's per-request "staged WAL records" flags,
	// slots its parse inputs (see runSlot) and out its responses, reused
	// from batch to batch.
	staged []bool
	slots  []parseSlot
	out    []Response
	// raw is the reused buffer requests are rendered into for the parse
	// (appendPayload): one request's bytes on the serial path, a whole
	// window's on the batched one. See keepRaw.
	raw []byte

	// Durability state (nil store = memory-only; see persist.go).
	store      persist.Store
	snapEvery  int
	walBuf     []byte   // the arena apply stages WAL records into, reused per batch
	walEnds    []int    // where each staged record ends in walBuf
	pending    [][]byte // flushWAL's views of the staged records, reused
	replaying  bool     // recovery replay in progress: do not re-log
	sinceSnap  int      // committed batches since the last snapshot
	snapCount  int      // snapshots taken (or restored) this process
	persistErr error    // fatal group-commit failure: the shard fail-stopped
	snapErr    error    // last snapshot failure (degraded log-only operation)
	drained    bool     // graceful drain completed: reject all requests

	// Batch-resolution accounting, fed by the root batch commit hook
	// (Domain.OnBatch).
	batchesCommitted uint64
	batchesDegraded  uint64
	callsReplayed    uint64
}

// NewServer builds a server over an existing system and cache.
func NewServer(sys *core.System, cache *Cache, cfg ServerConfig) (*Server, error) {
	cfg.fill()
	s := &Server{sys: sys, cache: cache, cfg: cfg}
	sc := retrofit.Config{Name: "kvstore", InterArrival: cfg.InterArrival}
	switch cfg.Mode {
	case ModeSDRaD:
		sc.Workers, sc.FirstUDI, sc.OnBatch, sc.Slot = cfg.Workers, cfg.FirstWorkerUDI, s.observeBatch, s.runSlot
	case ModeNative, ModeSandbox:
	default:
		return nil, fmt.Errorf("kvstore: unknown mode %v", cfg.Mode)
	}
	var err error
	if s.shell, err = retrofit.New(sys, sc); err != nil {
		return nil, err
	}
	if cfg.Persist != nil && cfg.Persist.Dir != "" {
		st, err := persist.OpenFile(cfg.Persist.Dir, persist.FileConfig{
			Fsync:   cfg.Persist.Fsync,
			Metrics: cfg.Persist.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("kvstore: open store: %w", err)
		}
		if err := s.AttachStore(st, cfg.Persist.SnapshotEvery); err != nil {
			if cerr := st.Close(); cerr != nil {
				return nil, fmt.Errorf("%w (and store close failed: %v)", err, cerr)
			}
			return nil, err
		}
	}
	return s, nil
}

// observeBatch is the Domain.OnBatch hook: it aggregates how worker
// batches resolved (clean commit vs degraded-to-serial).
func (s *Server) observeBatch(rep sdrad.BatchReport) {
	if rep.Committed {
		s.batchesCommitted++
	} else {
		s.batchesDegraded++
	}
	s.callsReplayed += uint64(rep.Replayed)
}

// Cache returns the underlying cache.
func (s *Server) Cache() *Cache { return s.cache }

// CacheStats returns the cache's counters (StatsSource).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// CacheBytes returns the cache's stored bytes (StatsSource).
func (s *Server) CacheBytes() uint64 { return s.cache.Bytes() }

// CacheItems returns the cache's item count (StatsSource).
func (s *Server) CacheItems() int { return s.cache.Items() }

// ServerStats reports server accounting: the shell's counters (Dropped
// also counts requests refused by a fail-stopped or drained durable
// shard) and the batch resolutions.
type ServerStats struct {
	retrofit.Counters
	// BatchesCommitted counts worker-domain batches whose optimistic
	// pass stood (one shared entry, one sweep); BatchesDegraded counts
	// batches a detection or application error pushed to serial replay;
	// CallsReplayed is the total serially re-derived calls. Fed by the
	// Domain.OnBatch commit hook.
	BatchesCommitted uint64
	BatchesDegraded  uint64
	CallsReplayed    uint64
}

// Stats returns a snapshot of server accounting.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Counters:         s.shell.Counters,
		BatchesCommitted: s.batchesCommitted,
		BatchesDegraded:  s.batchesDegraded,
		CallsReplayed:    s.callsReplayed,
	}
}

// maxKeptRaw bounds each buffer a server reuses between requests — the
// render buffer and the WAL staging arena: one that grew past it for a
// large request or window is dropped afterwards, so a shard does not
// hold a window of maximum-size values for the rest of its life.
const maxKeptRaw = 64 << 10

// keepRaw drops the render buffer if it grew past maxKeptRaw. Call it
// once the parse that read the buffer has run.
func (s *Server) keepRaw() {
	if cap(s.raw) > maxKeptRaw {
		s.raw = nil
	}
}

// appendPayload appends the request rendered in a memcached-text-like
// shape to dst: the untrusted byte string the handler parses. It is on
// the path of every request, so it renders into a buffer the server
// reuses and allocates only when that buffer grows.
func appendPayload(dst []byte, req workload.Request) []byte {
	switch req.Op {
	case workload.OpSet:
		dst = append(append(append(dst, "set "...), req.Key...), " 0 0 "...)
		dst = strconv.AppendInt(dst, int64(len(req.Value)), 10)
		return append(append(append(dst, "\r\n"...), req.Value...), "\r\n"...)
	case workload.OpDelete:
		return append(append(append(dst, "delete "...), req.Key...), "\r\n"...)
	default:
		return append(append(append(dst, "get "...), req.Key...), "\r\n"...)
	}
}

// Handle serves one request from clientID. It is HandleContext with a
// background context.
func (s *Server) Handle(clientID int, req workload.Request) Response {
	return s.HandleContext(context.Background(), clientID, req)
}

// HandleContext serves one request from clientID. The virtual clock
// advances by the request's full service time (network, parsing, cache
// access, and — on faults — recovery). In SDRaD mode a ctx deadline
// bounds the in-domain run with a virtual-cycle budget: a request that
// exhausts it is rewound and answered with a *core.BudgetError.
func (s *Server) HandleContext(ctx context.Context, clientID int, req workload.Request) Response {
	if s.drained {
		s.shell.Drop(1)
		return Response{Err: ErrDrained}
	}
	if s.persistErr != nil {
		s.shell.Drop(1)
		return s.failStopResponse()
	}
	start, ok := s.shell.Begin()
	if !ok { // the native server is restarting
		return Response{Err: ErrUnavailable}
	}
	s.raw = appendPayload(s.raw[:0], req)
	raw := s.raw
	var resp Response
	var err error
	switch s.cfg.Mode {
	case ModeSDRaD:
		resp, err = s.handleSDRaD(ctx, clientID, req, raw)
	case ModeSandbox:
		resp, err = s.handleSandbox(req, raw)
	default:
		resp, err = s.handleNative(req, raw)
	}
	s.keepRaw()
	if err != nil {
		resp.Err = err
	}
	// Serial requests are batches of one: the group commit degenerates
	// to one append. Ack-after-commit: a failed commit fails the request
	// and fail-stops the shard (see flushWAL).
	if ferr := s.flushWAL(); ferr != nil {
		resp.OK = false
		resp.Err = ferr
	}
	resp.Latency = s.shell.Since(start)
	return resp
}

// handleSDRaD parses the request inside the client's worker domain via
// the Runner API, then applies the operation to the protected cache from
// the trusted side.
func (s *Server) handleSDRaD(ctx context.Context, clientID int, req workload.Request, raw []byte) (Response, error) {
	verr := s.shell.Do(ctx, clientID, func(c *sdrad.Ctx) error { return s.domainParse(c, raw, req.Malicious) })
	return s.finishSDRaD(clientID, req, verr)
}

// domainParse is the in-domain half of one request: stage the untrusted
// bytes into the domain, parse them there, trigger the injected bug on
// malicious payloads. Shared by the serial and batched paths.
func (s *Server) domainParse(c *sdrad.Ctx, raw []byte, malicious bool) error {
	buf, tmp := s.shell.Stage(c, len(raw), raw)
	scan(tmp)
	if malicious {
		fault.Inject(c, s.cfg.MaliciousKind, 0)
	}
	c.MustFree(buf)
	return nil
}

// parseSlot is one batched request's parse input.
type parseSlot struct {
	raw       []byte
	malicious bool
}

// runSlot runs batch slot i's parse (retrofit.Config.Slot).
func (s *Server) runSlot(c *sdrad.Ctx, i int) error {
	return s.domainParse(c, s.slots[i].raw, s.slots[i].malicious)
}

// finishSDRaD classifies a failed parse or, for clean requests, applies
// the operation to the protected cache and stages a GET hit's value into
// the client's worker domain (the connection's output buffer).
func (s *Server) finishSDRaD(clientID int, req workload.Request, verr error) (Response, error) {
	if verr != nil {
		// A contained violation drops only the malicious client's
		// connection; a preempted request fails with the cache untouched.
		switch out, err := s.shell.Classify(verr); out {
		case retrofit.Contained:
			return Response{Err: err, Contained: true}, nil
		case retrofit.Preempted:
			return Response{Err: err}, nil
		default:
			return Response{}, err
		}
	}
	resp, err := s.apply(req)
	if err == nil && req.Op == workload.OpGet && resp.OK && len(resp.Value) > 0 {
		err = s.shell.StageReply(clientID, len(resp.Value)+32, resp.Value)
	}
	return resp, err
}

// BatchRequest is one request of a server batch: the submitting client,
// the request, and its own context (whose deadline maps to that
// request's virtual-cycle budget). A nil Ctx means no deadline.
type BatchRequest struct {
	Ctx      context.Context
	ClientID int
	Req      workload.Request
}

// HandleBatch serves a batch of pipelined requests as one unit — the
// submission-queue fast path. In SDRaD mode the batch pays one network
// round trip (the requests arrive coalesced, io_uring style) and groups
// requests per worker domain so each group shares one domain
// Enter/Exit and one integrity sweep (Domain.DoBatchItems; a faulting
// group transparently re-derives outcomes serially, so per-request
// results match serial HandleContext). Cache operations are applied in
// arrival order after the parses, preserving the serial store
// semantics. Native and sandbox modes fall back to per-request
// handling. The returned slice is the server's: it holds the responses
// until the next HandleBatch.
func (s *Server) HandleBatch(batch []BatchRequest) []Response {
	clear(s.out)
	s.out = slices.Grow(s.out[:0], len(batch))[:len(batch)]
	out := s.out
	if len(batch) == 0 {
		return out
	}
	if s.drained {
		s.shell.Drop(len(batch))
		for i := range out {
			out[i] = Response{Err: ErrDrained}
		}
		return out
	}
	if s.persistErr != nil {
		s.shell.Drop(len(batch))
		for i := range out {
			out[i] = s.failStopResponse()
		}
		return out
	}
	if s.cfg.Mode != ModeSDRaD || len(batch) == 1 {
		for i := range batch {
			out[i] = s.HandleContext(batch[i].Ctx, batch[i].ClientID, batch[i].Req)
		}
		return out
	}
	start := s.shell.BeginBatch(len(batch)) // one pipelined receive + send
	// The window renders into one arena. A request's bytes are its own
	// slice of it; if the arena grows mid-window, the earlier slices keep
	// the old array, which nothing writes again.
	s.raw = s.raw[:0]
	s.slots = slices.Grow(s.slots[:0], len(batch))[:len(batch)]
	for i := range batch {
		lo := len(s.raw)
		s.raw = appendPayload(s.raw, batch[i].Req)
		s.slots[i] = parseSlot{raw: s.raw[lo:len(s.raw):len(s.raw)], malicious: batch[i].Req.Malicious}
		s.shell.Queue(batch[i].Ctx, batch[i].ClientID)
	}
	verrs := s.shell.RunBatch()
	clear(s.slots)
	s.keepRaw()

	// Apply to the protected cache in arrival order, remembering which
	// requests staged WAL records.
	s.staged = slices.Grow(s.staged[:0], len(batch))[:len(batch)]
	staged := s.staged
	for i, r := range batch {
		before := len(s.walEnds)
		resp, err := s.finishSDRaD(r.ClientID, r.Req, verrs[i])
		if err != nil {
			resp.Err = err
		}
		staged[i] = len(s.walEnds) > before
		resp.Latency = s.shell.Since(start)
		out[i] = resp
	}
	// The group commit: every mutation the batch acknowledged goes out
	// as ONE append (at most one fsync). Requests the sweep rewound
	// never staged records — the rewind logically aborted their writes.
	// On a failed commit the acknowledgement is withdrawn from exactly
	// the requests whose records were lost, and the shard fail-stops
	// (flushWAL set persistErr): the nacked mutations are still in the
	// in-memory cache, so serving on would expose them to reads and a
	// later snapshot would make them durable.
	if ferr := s.flushWAL(); ferr != nil {
		for i := range out {
			if staged[i] {
				out[i].OK = false
				out[i].Err = ferr
			}
		}
	}
	return out
}

// handleNative parses the request in unprotected memory; a triggered bug
// crashes the whole process, which restarts (taking the full
// state-dependent restart time) while requests arriving in the window
// are dropped.
func (s *Server) handleNative(req workload.Request, raw []byte) (Response, error) {
	buf, tmp, err := s.shell.StageNative(len(raw), raw)
	if err != nil {
		return Response{}, err
	}
	scan(tmp)
	if req.Malicious {
		restart, err := s.shell.Crash(s.cache.Bytes())
		if err != nil {
			return Response{}, err
		}
		return Response{Err: fmt.Errorf("kvstore: process crashed (restart %v): %w",
			restart, ErrUnavailable)}, nil
	}
	if err := s.shell.Unstage(buf); err != nil {
		return Response{}, err
	}
	return s.apply(req)
}

// handleSandbox parses in a separate sandbox process: the request is
// shipped over IPC (context switch in), parsed, and the result shipped
// back (context switch out). A triggered bug kills only the sandbox
// child, which is re-forked — service-visible impact is one errored
// request plus the fork cost, not a full restart.
func (s *Server) handleSandbox(req workload.Request, raw []byte) (Response, error) {
	clk := s.sys.Clock()
	cost := clk.Model()
	// IPC round trip into and out of the sandbox process.
	clk.Advance(2*cost.ContextSwitch + 2*cost.Syscall + cost.MemPerByte*uint64(len(raw)))

	buf, tmp, err := s.shell.StageNative(len(raw), raw)
	if err != nil {
		return Response{}, err
	}
	scan(tmp)
	if err := s.shell.Unstage(buf); err != nil {
		return Response{}, err
	}
	if req.Malicious {
		// The sandbox child dies; re-fork it. Contained, but expensive.
		s.shell.Violations++
		clk.Advance(cost.ForkExec)
		return Response{Err: fmt.Errorf("kvstore: sandbox worker killed"), Contained: true}, nil
	}
	return s.apply(req)
}

// apply executes the parsed operation against the protected cache.
func (s *Server) apply(req workload.Request) (Response, error) {
	switch req.Op {
	case workload.OpGet:
		val, flags, hit, err := s.cache.Get(req.Key)
		if err != nil {
			return Response{}, err
		}
		return Response{OK: hit, Value: val, Flags: flags}, nil
	case workload.OpSet:
		if err := s.cache.SetItem(req.Key, req.Value, req.TTL, req.Flags); err != nil {
			return Response{}, err
		}
		s.stageSet(req.Key, req.Flags, req.Value)
		return Response{OK: true}, nil
	case workload.OpDelete:
		found, err := s.cache.Delete(req.Key)
		if err != nil {
			return Response{}, err
		}
		if found {
			s.stageDelete(req.Key)
		}
		return Response{OK: found}, nil
	default:
		return Response{}, fmt.Errorf("kvstore: unknown op %v", req.Op)
	}
}

// scan models request parsing: a linear token walk of the staged bytes
// (token split + length validation). The Go-side compute is identical in
// every mode; the simulated-memory traffic of the staging is what
// differs.
func scan(b []byte) int {
	tokens := 0
	inTok := false
	for _, ch := range b {
		sep := ch == ' ' || ch == '\r' || ch == '\n'
		if !sep && !inTok {
			tokens++
		}
		inTok = !sep
	}
	return tokens
}

// Warmup populates the cache with items totalling approximately
// stateBytes, using valueSize-byte values. It bypasses request handling
// (bulk load), mirroring a pre-experiment database load.
func Warmup(c *Cache, stateBytes uint64, valueSize int) (int, error) {
	if valueSize <= 0 {
		valueSize = 4096
	}
	n := 0
	val := make([]byte, valueSize)
	for c.Bytes()+uint64(valueSize) <= stateBytes && c.Bytes()+uint64(valueSize) <= c.Capacity() {
		if err := c.Set(workload.Key(n), val); err != nil {
			return n, fmt.Errorf("kvstore: warmup item %d: %w", n, err)
		}
		n++
	}
	return n, nil
}
