// Package httpd implements the NGINX-like static web server used as the
// paper's second use case.
//
// The compartmentalization pattern matches the SDRaD NGINX retrofit:
// request parsing — the code that touches untrusted bytes — runs inside a
// per-request isolated domain, while the routing table and content
// (trusted, long-lived state) stay in the root. A malicious request that
// triggers a parser bug (the injectable bug here is a stack-buffer
// overflow, the classic nginx CVE shape) is contained: the parsing domain
// is rewound and the connection dropped, with no worker crash and no
// impact on other clients. Native mode provides the crash-and-restart
// baseline.
package httpd

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	sdrad "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/pku"
	"repro/internal/procmodel"
	"repro/internal/vclock"
)

// Parser limits, mirroring nginx defaults.
const (
	// MaxRequestLine bounds the request line length.
	MaxRequestLine = 4096
	// MaxHeaders bounds the number of header lines.
	MaxHeaders = 100
	// MaxHeaderLine bounds one header line's length.
	MaxHeaderLine = 4096
)

// Sentinel errors.
var (
	// ErrMalformed is returned for syntactically invalid requests (maps
	// to a 400 response).
	ErrMalformed = errors.New("httpd: malformed request")
	// ErrUnavailable is the client-visible failure during a native
	// restart window (maps to a 503).
	ErrUnavailable = errors.New("httpd: service unavailable (restarting)")
)

// AttackHeader marks a request as triggering the injected parser bug
// (standing in for a crafted exploit payload).
const AttackHeader = "x-exploit"

// ParsedRequest is the outcome of parsing one HTTP/1.1 request.
type ParsedRequest struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string
}

// parse parses an HTTP/1.1 request head from b. It is deliberately
// strict: any structural error returns ErrMalformed. The head is walked
// line by line in place; the only garbage is the request's own strings
// and header map.
func parse(b []byte) (ParsedRequest, error) {
	text := string(b)
	head, _, found := strings.Cut(text, "\r\n\r\n")
	if !found {
		return ParsedRequest{}, fmt.Errorf("%w: missing head terminator", ErrMalformed)
	}
	line, rest, more := strings.Cut(head, "\r\n")
	if len(line) > MaxRequestLine {
		return ParsedRequest{}, fmt.Errorf("%w: request line too long", ErrMalformed)
	}
	method, target, ok1 := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(target, " ")
	if !ok1 || !ok2 || strings.Contains(proto, " ") ||
		method == "" || !strings.HasPrefix(path, "/") || !strings.HasPrefix(proto, "HTTP/") {
		return ParsedRequest{}, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	headers := strings.Count(head, "\r\n")
	if headers > MaxHeaders {
		return ParsedRequest{}, fmt.Errorf("%w: too many headers", ErrMalformed)
	}
	pr := ParsedRequest{Method: method, Path: path, Proto: proto, Headers: make(map[string]string, headers)}
	for more {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		if ln == "" {
			continue
		}
		if len(ln) > MaxHeaderLine {
			return ParsedRequest{}, fmt.Errorf("%w: header line too long", ErrMalformed)
		}
		name, value, found := strings.Cut(ln, ":")
		if !found || name == "" {
			return ParsedRequest{}, fmt.Errorf("%w: bad header %q", ErrMalformed, ln)
		}
		pr.Headers[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	return pr, nil
}

// Mode selects the server's resilience strategy.
type Mode uint8

// Server modes.
const (
	ModeNative Mode = iota + 1
	ModeSDRaD
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeSDRaD:
		return "sdrad"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Response is the outcome of serving one request.
type Response struct {
	Status int
	Body   []byte
	// Err is the transport-level failure, if any.
	Err error
	// Latency is the virtual service time.
	Latency time.Duration
	// Contained reports a rewound parser-domain violation.
	Contained bool
	// RetryAfterCycles, when nonzero, is the quantized virtual-cycle
	// retry hint an overload/admission rejection carries; the wire
	// response renders it as a Retry-After header.
	RetryAfterCycles uint64
}

// Config configures a Server.
type Config struct {
	// Mode selects native vs SDRaD (default SDRaD).
	Mode Mode
	// Workers is the number of parsing domains (default 4).
	Workers int
	// FirstWorkerUDI is the UDI of the first parsing domain (default 30).
	FirstWorkerUDI core.UDI
	// InterArrival spaces request arrivals (default 100µs).
	InterArrival time.Duration
	// AttackKind is the injected parser bug class (default StackSmash).
	AttackKind fault.Kind
}

func (c *Config) fill() {
	if c.Mode == 0 {
		c.Mode = ModeSDRaD
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.FirstWorkerUDI == 0 {
		c.FirstWorkerUDI = 30
	}
	if c.InterArrival <= 0 {
		c.InterArrival = 100 * time.Microsecond
	}
	if c.AttackKind == 0 {
		c.AttackKind = fault.StackSmash
	}
}

// Server is the static web server. Create with NewServer; not safe for
// concurrent use.
type Server struct {
	sys     *core.System
	cfg     Config
	routes  map[string][]byte
	workers []*sdrad.Domain
	scratch *alloc.Heap
	// parseBuf and headBuf are reusable host-side staging buffers (the
	// server is single-threaded): parseBuf stages the request bytes for
	// the parse, headBuf the fixed-size response head.
	parseBuf []byte
	headBuf  []byte

	downUntil uint64

	requests   uint64
	violations uint64
	crashes    uint64
	dropped    uint64
	preempted  uint64
}

// NewServer builds a server on sys.
func NewServer(sys *core.System, cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{sys: sys, cfg: cfg, routes: make(map[string][]byte)}
	switch cfg.Mode {
	case ModeSDRaD:
		sup := sdrad.Attach(sys)
		for i := 0; i < cfg.Workers; i++ {
			udi := cfg.FirstWorkerUDI + core.UDI(i)
			if _, err := sys.InitDomain(udi, core.DomainConfig{
				HeapPages:  8,
				StackPages: 4,
			}); err != nil {
				return nil, fmt.Errorf("httpd: worker %d: %w", i, err)
			}
			d, err := sup.DomainAt(int(udi))
			if err != nil {
				return nil, fmt.Errorf("httpd: worker %d: %w", i, err)
			}
			s.workers = append(s.workers, d)
		}
	case ModeNative:
		h, err := alloc.New(sys.Mem(), pku.DefaultKey, alloc.Config{InitialPages: 8})
		if err != nil {
			return nil, fmt.Errorf("httpd: scratch heap: %w", err)
		}
		s.scratch = h
	default:
		return nil, fmt.Errorf("httpd: unknown mode %v", cfg.Mode)
	}
	return s, nil
}

// Mode returns the server's mode.
func (s *Server) Mode() Mode { return s.cfg.Mode }

// Workers returns the live parsing-domain count (0 outside SDRaD mode).
func (s *Server) Workers() int { return len(s.workers) }

// MaxResizeWorkers caps ResizeWorkers: each parsing domain consumes one
// of the simulated machine's 16 protection keys, and the default key
// and the root-protected key are spoken for.
const MaxResizeWorkers = 12

// ResizeWorkers grows or shrinks the parsing-domain set to n (SDRaD
// mode only). Parsing domains are pristine between requests, so the
// count is purely a concurrency/placement knob: a request's response is
// identical whichever domain parses it. Grown workers are fresh domains
// at the next UDIs; shrinking deinitializes the tail workers (releasing
// their protection keys and pages).
func (s *Server) ResizeWorkers(n int) error {
	if s.cfg.Mode != ModeSDRaD {
		return fmt.Errorf("httpd: resize workers: mode %v has no parsing domains", s.cfg.Mode)
	}
	if n < 1 || n > MaxResizeWorkers {
		return fmt.Errorf("httpd: resize workers: %d out of range [1, %d]", n, MaxResizeWorkers)
	}
	cur := len(s.workers)
	if n > cur {
		sup := sdrad.Attach(s.sys)
		for i := cur; i < n; i++ {
			udi := s.cfg.FirstWorkerUDI + core.UDI(i)
			if _, err := s.sys.InitDomain(udi, core.DomainConfig{
				HeapPages:  8,
				StackPages: 4,
			}); err != nil {
				return fmt.Errorf("httpd: resize worker %d: %w", i, err)
			}
			d, err := sup.DomainAt(int(udi))
			if err != nil {
				return fmt.Errorf("httpd: resize worker %d: %w", i, err)
			}
			s.workers = append(s.workers, d)
		}
	}
	for i := cur - 1; i >= n; i-- {
		if err := s.workers[i].Close(); err != nil {
			return fmt.Errorf("httpd: retire worker %d: %w", i, err)
		}
		s.workers = s.workers[:i]
	}
	s.cfg.Workers = n
	return nil
}

// HandleFunc registers static content for GET path.
func (s *Server) HandleFunc(path string, content []byte) {
	s.routes[path] = content
}

// Stats reports server accounting.
type Stats struct {
	Requests   uint64
	Violations uint64
	Crashes    uint64
	Dropped    uint64
	// Preempted counts requests cancelled by their context: the parse
	// run exhausted its deadline-derived virtual-cycle budget, or the
	// context expired before the domain was entered.
	Preempted uint64
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{Requests: s.requests, Violations: s.violations, Crashes: s.crashes, Dropped: s.dropped, Preempted: s.preempted}
}

// ContentBytes returns the total bytes of registered content (the state a
// restart reloads).
func (s *Server) ContentBytes() uint64 {
	var n uint64
	//lint:detorder commutative uint64 sum; iteration order cannot change the total
	for _, c := range s.routes {
		n += uint64(len(c))
	}
	return n
}

// Serve handles one raw HTTP request from clientID. It is ServeContext
// with a background context.
func (s *Server) Serve(clientID int, raw []byte) Response {
	return s.ServeContext(context.Background(), clientID, raw)
}

// ServeContext handles one raw HTTP request from clientID. In SDRaD mode
// a ctx deadline bounds the parse run with a virtual-cycle budget: a
// request that exhausts it gets a 408 and the parsing domain is rewound,
// exactly like a contained exploit.
func (s *Server) ServeContext(ctx context.Context, clientID int, raw []byte) Response {
	s.requests++
	clk := s.sys.Clock()
	cost := clk.Model()
	clk.AdvanceTime(s.cfg.InterArrival)

	if s.cfg.Mode == ModeNative && clk.Cycles() < s.downUntil {
		s.dropped++
		return Response{Status: 503, Err: ErrUnavailable}
	}

	start := clk.Cycles()
	clk.Advance(2 * cost.Syscall) // accept/read + write/close

	var resp Response
	switch s.cfg.Mode {
	case ModeSDRaD:
		resp = s.serveSDRaD(ctx, clientID, raw)
	default:
		resp = s.serveNative(raw)
	}
	resp.Latency = vclock.CyclesToDuration(clk.Cycles()-start, cost.CPUHz)
	return resp
}

// serveSDRaD parses inside the client's parsing domain via the Runner
// API; routing and content live in the trusted root.
func (s *Server) serveSDRaD(ctx context.Context, clientID int, raw []byte) Response {
	d := s.workers[clientID%len(s.workers)]
	var pr ParsedRequest
	var perr error
	verr := d.Do(ctx, s.parseFn(raw, &pr, &perr))
	return s.finishSDRaD(d, pr, perr, verr)
}

// parseFn builds the in-domain half of one request: stage the raw bytes
// into the parsing domain, parse them there, trigger the injected bug
// on attack-marked requests. The results land in *pr/*perr (overwritten
// on a batch replay — the at-least-once contract). Shared by the serial
// and batched paths.
func (s *Server) parseFn(raw []byte, pr *ParsedRequest, perr *error) func(*sdrad.Ctx) error {
	return func(c *sdrad.Ctx) error {
		buf := c.MustAlloc(len(raw) + 1)
		c.MustStore(buf, raw)
		tmp := s.stage(len(raw))
		c.MustLoad(buf, tmp)
		*pr, *perr = parse(tmp)
		if *perr == nil {
			if _, attacked := pr.Headers[AttackHeader]; attacked {
				fault.Inject(c, s.cfg.AttackKind, 0)
			}
		}
		c.MustFree(buf)
		return nil
	}
}

// finishSDRaD classifies the parse outcome and, for clean requests,
// routes and stages the response head into the parsing domain.
func (s *Server) finishSDRaD(d *sdrad.Domain, pr ParsedRequest, perr error, verr error) Response {
	if v, ok := core.IsViolation(verr); ok {
		s.violations++
		return Response{Status: 400, Err: v, Contained: true}
	}
	if b, ok := core.IsBudget(verr); ok {
		s.preempted++
		return Response{Status: 408, Err: b}
	}
	if errors.Is(verr, context.DeadlineExceeded) || errors.Is(verr, context.Canceled) {
		// The deadline passed (or the caller cancelled) before the parse
		// domain was ever entered — e.g. the request sat queued behind a
		// busy shard. Same client-visible outcome as a mid-run preemption.
		s.preempted++
		return Response{Status: 408, Err: verr}
	}
	if verr != nil {
		return Response{Status: 500, Err: verr}
	}
	if perr != nil {
		return Response{Status: 400, Err: perr}
	}
	resp := s.route(pr)
	// Response staging: the status line and headers are written into the
	// connection's output buffer, which belongs to the parsing domain.
	// This cross-boundary copy exists only in SDRaD mode.
	const headLen = 128
	out, aerr := d.Alloc(headLen)
	if aerr != nil {
		return Response{Status: 500, Err: aerr}
	}
	if cap(s.headBuf) < headLen {
		s.headBuf = make([]byte, headLen)
	}
	head := s.headBuf[:headLen]
	clear(head)
	// At most 71 bytes (two 20-digit numbers), so the append stays
	// inside head.
	h := strconv.AppendInt(append(head[:0], "HTTP/1.1 "...), int64(resp.Status), 10)
	h = strconv.AppendInt(append(h, "\r\ncontent-length: "...), int64(len(resp.Body)), 10)
	_ = append(h, "\r\n\r\n"...)
	if cerr := d.Write(out, head); cerr != nil {
		return Response{Status: 500, Err: cerr}
	}
	if ferr := d.Free(out); ferr != nil {
		return Response{Status: 500, Err: ferr}
	}
	return resp
}

// BatchRequest is one request of a server batch: the submitting client,
// the raw request bytes, and its own context (whose deadline maps to
// that request's virtual-cycle budget). A nil Ctx means no deadline.
type BatchRequest struct {
	Ctx      context.Context
	ClientID int
	Raw      []byte
}

// ServeBatch serves a batch of pipelined requests as one unit — the
// submission-queue fast path. In SDRaD mode the batch pays one network
// round trip and groups requests per parsing domain so each group
// shares one domain Enter/Exit and one integrity sweep
// (Domain.DoBatchItems; a faulting group transparently re-derives
// outcomes serially, so per-request results match serial ServeContext).
// Routing runs in arrival order after the parses. Native mode falls
// back to per-request handling.
func (s *Server) ServeBatch(batch []BatchRequest) []Response {
	out := make([]Response, len(batch))
	if len(batch) == 0 {
		return out
	}
	if s.cfg.Mode != ModeSDRaD || len(batch) == 1 {
		for i, r := range batch {
			out[i] = s.ServeContext(batchCtx(r.Ctx), r.ClientID, r.Raw)
		}
		return out
	}
	clk := s.sys.Clock()
	cost := clk.Model()
	s.requests += uint64(len(batch))
	clk.AdvanceTime(time.Duration(len(batch)) * s.cfg.InterArrival) // arrival spacing
	start := clk.Cycles()
	clk.Advance(2 * cost.Syscall) // one pipelined accept/read + write for the batch

	// Partition by parsing domain (stable): every group shares one entry.
	type parseResult struct {
		pr   ParsedRequest
		perr error
		verr error
	}
	res := make([]parseResult, len(batch))
	groups := make([][]int, len(s.workers))
	for i, r := range batch {
		w := r.ClientID % len(s.workers)
		groups[w] = append(groups[w], i)
	}
	for w, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		items := make([]sdrad.BatchItem, len(idxs))
		for k, i := range idxs {
			items[k] = sdrad.BatchItem{
				Ctx: batchCtx(batch[i].Ctx),
				Fn:  s.parseFn(batch[i].Raw, &res[i].pr, &res[i].perr),
			}
		}
		for k, err := range s.workers[w].DoBatchItems(items) {
			res[idxs[k]].verr = err
		}
	}

	// Route in arrival order.
	for i, r := range batch {
		d := s.workers[r.ClientID%len(s.workers)]
		resp := s.finishSDRaD(d, res[i].pr, res[i].perr, res[i].verr)
		resp.Latency = vclock.CyclesToDuration(clk.Cycles()-start, cost.CPUHz)
		out[i] = resp
	}
	return out
}

func batchCtx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// serveNative parses in unprotected memory; the injected bug crashes the
// process.
func (s *Server) serveNative(raw []byte) Response {
	buf, err := s.scratch.Alloc(len(raw) + 1)
	if err != nil {
		return Response{Status: 500, Err: err}
	}
	m := s.sys.Mem()
	if err := m.StoreBytes(pku.PKRUAllowAll, buf, raw); err != nil {
		return Response{Status: 500, Err: err}
	}
	tmp := s.stage(len(raw))
	if err := m.LoadBytes(pku.PKRUAllowAll, buf, tmp); err != nil {
		return Response{Status: 500, Err: err}
	}
	pr, perr := parse(tmp)
	if perr == nil {
		if _, attacked := pr.Headers[AttackHeader]; attacked {
			return s.crash()
		}
	}
	if err := s.scratch.Free(buf); err != nil {
		return Response{Status: 500, Err: err}
	}
	if perr != nil {
		return Response{Status: 400, Err: perr}
	}
	return s.route(pr)
}

func (s *Server) crash() Response {
	s.crashes++
	clk := s.sys.Clock()
	restart := procmodel.ProcessRestart{Cost: clk.Model()}.RecoveryTime(s.ContentBytes())
	s.downUntil = clk.Cycles() + vclock.DurationToCycles(restart, clk.Model().CPUHz)
	if err := s.scratch.ResetNoZero(); err != nil {
		return Response{Status: 500, Err: err}
	}
	return Response{Status: 500, Err: fmt.Errorf("httpd: worker crashed (restart %v): %w", restart, ErrUnavailable)}
}

// route resolves the parsed request against the static routing table and
// charges the content copy.
func (s *Server) route(pr ParsedRequest) Response {
	if pr.Method != "GET" && pr.Method != "HEAD" {
		return Response{Status: 405}
	}
	content, ok := s.routes[pr.Path]
	if !ok {
		return Response{Status: 404}
	}
	// Charge the body copy (sendfile-ish per-byte cost).
	s.sys.Clock().Advance(s.sys.Clock().Model().MemPerByte * uint64(len(content)))
	if pr.Method == "HEAD" {
		return Response{Status: 200}
	}
	body := make([]byte, len(content))
	copy(body, content)
	return Response{Status: 200, Body: body}
}

// BuildRequest renders a well-formed HTTP/1.1 request for tests and
// load generators. Headers are emitted in sorted key order so two
// renders of the same request are byte-identical: request bytes feed
// workload streams and campaign traces, where map-iteration order would
// show up as a same-seed trace diff.
func BuildRequest(method, path string, headers map[string]string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\n", method, path)
	b.WriteString("host: localhost\r\n")
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, headers[k])
	}
	b.WriteString("\r\n")
	return []byte(b.String())
}

// Interface compliance check.
var _ fmt.Stringer = ModeNative

// stage returns the server's reusable n-byte parse staging buffer.
func (s *Server) stage(n int) []byte {
	if cap(s.parseBuf) < n {
		s.parseBuf = make([]byte, n)
	}
	return s.parseBuf[:n]
}
