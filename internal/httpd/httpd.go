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
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	sdrad "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/retrofit"
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
	Method string
	Path   string
	Proto  string
	// header is the validated header block: the head's lines after the
	// request line, read by Header.
	header string
}

// Header returns the value of header name and whether the request sent
// it. A sent header matches when its name, trimmed of surrounding white
// space and lower-cased, equals name; of several that match, the last
// wins. The value is trimmed of surrounding white space.
func (pr ParsedRequest) Header(name string) (value string, ok bool) {
	rest, more := pr.header, pr.header != ""
	for more {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		if ln == "" {
			continue
		}
		h, v, _ := strings.Cut(ln, ":")
		if lowerEqual(strings.TrimSpace(h), name) {
			value, ok = strings.TrimSpace(v), true
		}
	}
	return value, ok
}

// lowerEqual reports whether strings.ToLower(s) == lower without
// building the lowered string: s is lowered rune by rune, an invalid
// byte becoming the U+FFFD that strings.ToLower writes for it.
func lowerEqual(s, lower string) bool {
	var buf [utf8.UTFMax]byte
	for _, r := range s {
		n := utf8.EncodeRune(buf[:], unicode.ToLower(r))
		if len(lower) < n || lower[:n] != string(buf[:n]) {
			return false
		}
		lower = lower[n:]
	}
	return lower == ""
}

// parse parses an HTTP/1.1 request head from b. It is deliberately
// strict: any structural error returns ErrMalformed. The head is walked
// line by line in place; the only garbage is the one string the head is
// copied into, which the request's fields and Header read.
func parse(b []byte) (ParsedRequest, error) {
	text := string(b)
	head, _, found := strings.Cut(text, "\r\n\r\n")
	if !found {
		return ParsedRequest{}, fmt.Errorf("%w: missing head terminator", ErrMalformed)
	}
	line, header, more := strings.Cut(head, "\r\n")
	if len(line) > MaxRequestLine {
		return ParsedRequest{}, fmt.Errorf("%w: request line too long", ErrMalformed)
	}
	method, target, ok1 := strings.Cut(line, " ")
	path, proto, ok2 := strings.Cut(target, " ")
	if !ok1 || !ok2 || strings.Contains(proto, " ") ||
		method == "" || !strings.HasPrefix(path, "/") || !strings.HasPrefix(proto, "HTTP/") {
		return ParsedRequest{}, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	if strings.Count(head, "\r\n") > MaxHeaders {
		return ParsedRequest{}, fmt.Errorf("%w: too many headers", ErrMalformed)
	}
	for rest := header; more; {
		var ln string
		ln, rest, more = strings.Cut(rest, "\r\n")
		if ln == "" {
			continue
		}
		if len(ln) > MaxHeaderLine {
			return ParsedRequest{}, fmt.Errorf("%w: header line too long", ErrMalformed)
		}
		if name, _, found := strings.Cut(ln, ":"); !found || name == "" {
			return ParsedRequest{}, fmt.Errorf("%w: bad header %q", ErrMalformed, ln)
		}
	}
	return ParsedRequest{Method: method, Path: path, Proto: proto, header: header}, nil
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
	// Body is the response body. A routed page's body is the content
	// registered for its path, not a copy: read it, never modify it.
	Body []byte
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
	sys    *core.System
	cfg    Config
	routes map[string][]byte
	// shell owns the parsing domains (SDRaD), the scratch heap and restart
	// window (native), and the request counters.
	shell retrofit.Shell
	// headBuf is the reusable fixed-size response head; parsed is
	// ServeBatch's per-request parses, by batch slot (see runSlot), and
	// out its responses. All are reused from request to request (the
	// server is single-threaded).
	headBuf []byte
	parsed  []parseResult
	out     []Response
}

// parseResult is one request's in-domain parse: the raw bytes it reads
// and the outcome it writes.
type parseResult struct {
	raw  []byte
	pr   ParsedRequest
	perr error
}

// NewServer builds a server on sys.
func NewServer(sys *core.System, cfg Config) (*Server, error) {
	cfg.fill()
	s := &Server{sys: sys, cfg: cfg, routes: make(map[string][]byte)}
	sc := retrofit.Config{Name: "httpd", InterArrival: cfg.InterArrival}
	switch cfg.Mode {
	case ModeSDRaD:
		sc.Workers, sc.FirstUDI, sc.Slot = cfg.Workers, cfg.FirstWorkerUDI, s.runSlot
	case ModeNative:
	default:
		return nil, fmt.Errorf("httpd: unknown mode %v", cfg.Mode)
	}
	var err error
	if s.shell, err = retrofit.New(sys, sc); err != nil {
		return nil, err
	}
	return s, nil
}

// HandleFunc registers static content for GET path. The server keeps
// content itself and serves it as the body of every routed response, so
// it must not be modified once registered.
func (s *Server) HandleFunc(path string, content []byte) {
	s.routes[path] = content
}

// Stats reports server accounting: the shell's counters.
type Stats = retrofit.Counters

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.shell.Counters }

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
	start, ok := s.shell.Begin() // accept/read + write/close
	if !ok {                     // the native worker is restarting
		return Response{Status: 503, Err: ErrUnavailable}
	}
	var resp Response
	switch s.cfg.Mode {
	case ModeSDRaD:
		resp = s.serveSDRaD(ctx, clientID, raw)
	default:
		resp = s.serveNative(raw)
	}
	resp.Latency = s.shell.Since(start)
	return resp
}

// serveSDRaD parses inside the client's parsing domain via the Runner
// API; routing and content live in the trusted root.
func (s *Server) serveSDRaD(ctx context.Context, clientID int, raw []byte) Response {
	r := parseResult{raw: raw}
	verr := s.shell.Do(ctx, clientID, func(c *sdrad.Ctx) error { return s.domainParse(c, &r) })
	return s.finishSDRaD(clientID, &r, verr)
}

// domainParse is the in-domain half of one request: stage r.raw into
// the parsing domain, parse it there, trigger the injected bug on
// attack-marked requests. The outcome lands in r (overwritten on a
// batch replay — the at-least-once contract). Shared by the serial and
// batched paths.
func (s *Server) domainParse(c *sdrad.Ctx, r *parseResult) error {
	buf, tmp := s.shell.Stage(c, len(r.raw)+1, r.raw)
	r.pr, r.perr = parse(tmp)
	if r.perr == nil {
		if _, attacked := r.pr.Header(AttackHeader); attacked {
			fault.Inject(c, s.cfg.AttackKind, 0)
		}
	}
	c.MustFree(buf)
	return nil
}

// runSlot runs batch slot i's parse (retrofit.Config.Slot).
func (s *Server) runSlot(c *sdrad.Ctx, i int) error {
	return s.domainParse(c, &s.parsed[i])
}

// finishSDRaD classifies a failed parse — a contained exploit answers
// 400, a preemption 408 — or, for clean requests, routes and stages the
// response head into the client's parsing domain (the connection's
// output buffer).
func (s *Server) finishSDRaD(clientID int, r *parseResult, verr error) Response {
	if verr != nil {
		switch out, err := s.shell.Classify(verr); out {
		case retrofit.Contained:
			return Response{Status: 400, Err: err, Contained: true}
		case retrofit.Preempted:
			return Response{Status: 408, Err: err}
		default:
			return Response{Status: 500, Err: err}
		}
	}
	if r.perr != nil {
		return Response{Status: 400, Err: r.perr}
	}
	resp := s.route(r.pr)
	const headLen = 128
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
	if err := s.shell.StageReply(clientID, headLen, head); err != nil {
		return Response{Status: 500, Err: err}
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
// back to per-request handling. The returned slice is the server's: it
// holds the responses until the next ServeBatch.
func (s *Server) ServeBatch(batch []BatchRequest) []Response {
	clear(s.out)
	s.out = slices.Grow(s.out[:0], len(batch))[:len(batch)]
	out := s.out
	if len(batch) == 0 {
		return out
	}
	if s.cfg.Mode != ModeSDRaD || len(batch) == 1 {
		for i := range batch {
			out[i] = s.ServeContext(batch[i].Ctx, batch[i].ClientID, batch[i].Raw)
		}
		return out
	}
	start := s.shell.BeginBatch(len(batch)) // one pipelined accept/read + write
	s.parsed = slices.Grow(s.parsed[:0], len(batch))[:len(batch)]
	for i := range batch {
		s.parsed[i].raw = batch[i].Raw
		s.shell.Queue(batch[i].Ctx, batch[i].ClientID)
	}
	verrs := s.shell.RunBatch()

	// Route in arrival order.
	for i := range batch {
		resp := s.finishSDRaD(batch[i].ClientID, &s.parsed[i], verrs[i])
		resp.Latency = s.shell.Since(start)
		out[i] = resp
	}
	clear(s.parsed)
	return out
}

// serveNative parses in unprotected memory; the injected bug crashes the
// process.
func (s *Server) serveNative(raw []byte) Response {
	buf, tmp, err := s.shell.StageNative(len(raw)+1, raw)
	if err != nil {
		return Response{Status: 500, Err: err}
	}
	pr, perr := parse(tmp)
	if perr == nil {
		if _, attacked := pr.Header(AttackHeader); attacked {
			// The worker dies and restarts, reloading its content.
			restart, err := s.shell.Crash(s.ContentBytes())
			if err == nil {
				err = fmt.Errorf("httpd: worker crashed (restart %v): %w", restart, ErrUnavailable)
			}
			return Response{Status: 500, Err: err}
		}
	}
	if err := s.shell.Unstage(buf); err != nil {
		return Response{Status: 500, Err: err}
	}
	if perr != nil {
		return Response{Status: 400, Err: perr}
	}
	return s.route(pr)
}

// route resolves the parsed request against the static routing table and
// charges the content copy. The body is the registered content itself,
// capped so an append to it cannot write into the table's array.
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
	return Response{Status: 200, Body: content[:len(content):len(content)]}
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
