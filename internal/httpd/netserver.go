package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dispatch"
	"repro/internal/gateway"
	"repro/internal/serve"
)

// NetServer serves HTTP/1.1 over TCP on top of a Pool, one request per
// connection (Connection: close semantics). The embedded serve.Frontend
// owns the sockets, the lifecycle, the gateway, the submission queues
// and the elastic controller; this type adds the protocol: head
// parsing, response rendering, the admission status mapping, the
// /healthz and /drainz endpoints, and the least-loaded worker pick.
type NetServer struct {
	*serve.Frontend[[]byte, Response]
}

// newNetServer returns an Initializing server over p.
func newNetServer(p *Pool, logger *log.Logger) *NetServer {
	n := &NetServer{}
	var rr atomic.Uint64
	// scratch[i] is worker i's reusable batch (batches for one worker
	// never overlap).
	scratch := make([][]BatchRequest, p.Workers())
	n.Frontend = serve.New(serve.Backend[[]byte, Response]{
		Name:      "httpd",
		ServeConn: n.serveConn,
		Handle:    p.ServeContext,
		Batch: func(si int, calls []*serve.Call[[]byte, Response]) {
			batch := scratch[si][:0]
			for _, c := range calls {
				batch = append(batch, BatchRequest{Ctx: c.Ctx, ClientID: c.ClientID, Raw: c.Req})
			}
			for i, resp := range p.serveBatch(si, batch) {
				calls[i].Resp = resp
			}
			clear(batch)
			scratch[si] = batch
		},
		// Requests are stateless: least-loaded queue with a round-robin
		// tiebreak, failing over to any other queue when it is full.
		Pick: func(_ []byte, load func(int) int64) int {
			return dispatch.LeastLoaded(p.Workers(), int(rr.Add(1)-1), load)
		},
		Failover: true,
		// A shed request answers 503; an overload carries the
		// deterministic cycles-quantized hint as Retry-After.
		Shed: func(err error) Response {
			cycles, _ := gateway.RetryAfterCycles(err)
			return Response{Status: 503, Err: err, RetryAfterCycles: cycles}
		},
		Shards:     p.Workers(),
		Workers:    p.ShardWorkers,
		Resize:     p.ResizeWorkers,
		MaxWorkers: MaxResizeWorkers,
	}, logger)
	return n
}

// NewNetServer wraps srv for TCP serving as a one-worker pool; logger
// may be nil. The single Server owns one simulated core, so request
// handling is serialized behind the worker lock.
func NewNetServer(srv *Server, logger *log.Logger) *NetServer {
	return NewNetServerPool(&Pool{shards: []*poolShard{{srv: srv}}}, logger)
}

// NewNetServerPool wraps a Pool for TCP serving; logger may be nil. The
// pool synchronizes internally per worker, so requests on different
// workers execute in parallel.
func NewNetServerPool(p *Pool, logger *log.Logger) *NetServer {
	n := newNetServer(p, logger)
	_ = n.Serving() //lint:errclass a serial frontend allocates nothing in Init; a fresh machine cannot refuse
	return n
}

// NewBatchedNetServerPool wraps a Pool for TCP serving through the
// asynchronous submission layer (serve.Frontend.Queue): one drain loop
// per worker coalesces up to maxBatch queued requests into a single
// pipelined Server.ServeBatch — one domain Enter per parsing-domain
// group instead of per request. maxInflight bounds
// admitted-but-unanswered requests across the pool (<= 0 means 1024);
// at capacity new requests are answered 503 immediately with a
// deterministic Retry-After hint. Call Close after Serve returns to
// stop the drain loops.
func NewBatchedNetServerPool(p *Pool, logger *log.Logger, maxInflight, maxBatch int) (*NetServer, error) {
	n := newNetServer(p, logger)
	n.Queue(maxInflight, maxBatch)
	if err := n.Serving(); err != nil {
		return nil, err
	}
	return n, nil
}

// connBuffers is the scratch one connection borrows from connPool: the
// reader its head is read through and the buffer its response is
// rendered into. Nothing a connection needs outlives its turn with them
// — the reader is reset to nil before it goes back, the head is a copy
// — so neither is allocated per connection.
type connBuffers struct {
	r   *bufio.Reader
	out []byte
}

var connPool = sync.Pool{New: func() any { return &connBuffers{r: bufio.NewReader(nil)} }}

// maxPooledResponse bounds the response buffer a connection hands back
// to connPool, so one large page does not stay pinned by the pool.
const maxPooledResponse = 64 << 10

// serveConn answers the connection's one request: one head read, one
// write of the whole response. A head that cannot be read (a client
// that connects and hangs up, a port scan, an oversized head) is
// answered with nothing and logged through the paced log.
func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	b := connPool.Get().(*connBuffers)
	b.r.Reset(conn)
	raw, err := ReadRequestHead(b.r)
	b.r.Reset(nil)
	if err != nil {
		n.LogPaced(serve.EventReadFailed, id, "", err)
	} else {
		b.out = appendResponse(b.out[:0], n.dispatch(id, raw))
		_, _ = conn.Write(b.out) // the peer may be gone; there is no one left to tell
	}
	if cap(b.out) > maxPooledResponse {
		b.out = nil
	}
	connPool.Put(b)
}

// dispatch routes one request: without a gateway it goes straight to
// the backend; with one, lifecycle endpoints are answered host-side and
// everything else runs the admission pipeline — bearer auth (401),
// per-tenant rate/quota/quarantine (429 + Retry-After), drain (503) —
// before the backend sees a byte, and reports its outcome to the
// tenant's circuit breaker afterwards.
func (n *NetServer) dispatch(id int, raw []byte) Response {
	gw := n.Gateway()
	if gw == nil {
		return n.do(id, raw, "")
	}
	path := requestPath(raw)
	if string(path) == "/healthz" {
		// Unauthenticated by design: load-balancer probes carry no
		// credentials, and the document holds no tenant secrets (only
		// tenant names and counters). httpd's workers hold no durable
		// state, so it carries drain state and tenant counters only.
		h := n.Health()
		return Response{Status: h.Status(), Body: h.JSON()}
	}
	// Rejected credentials are logged through the paced log: a client
	// can send them at will.
	token, aerr := gateway.BearerToken(raw)
	if aerr != nil {
		n.LogPaced(serve.EventAuthRejected, id, "", aerr)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	tenant, err := gw.Authenticate(token)
	if err != nil {
		n.LogPaced(serve.EventAuthRejected, id, "", err)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	if string(path) == "/drainz" {
		if derr := n.Drain(); derr != nil {
			return Response{Status: 500, Err: derr}
		}
		return Response{Status: 200, Body: []byte("draining\n")}
	}
	ticket, err := gw.Admit(tenant)
	if err != nil {
		return admissionResponse(err)
	}
	resp := n.do(id, raw, tenant)
	// 408 is the wire mapping of a budget preemption (see finishSDRaD).
	ticket.Done(resp.Contained, resp.Status == 408)
	return resp
}

// do serves one request and reports a contained exploit to the
// frontend's paced log (tenant is "" without a gateway).
func (n *NetServer) do(id int, raw []byte, tenant string) Response {
	resp := n.Do(id, raw)
	if resp.Contained {
		n.LogPaced(serve.EventContained, id, tenant, nil)
	}
	return resp
}

// admissionResponse maps a typed gateway rejection onto the wire:
// rate/quota/quarantine answer 429 with a deterministic Retry-After,
// drain answers 503.
func admissionResponse(err error) Response {
	if gateway.IsDraining(err) {
		return Response{Status: 503, Err: err}
	}
	if qe, ok := gateway.IsQuarantined(err); ok {
		return Response{
			Status:           429,
			Err:              err,
			RetryAfterCycles: gateway.QuantizeRetryCycles(qe.ProbeIn * serve.OverloadRetryCyclesPerSlot),
		}
	}
	if cycles, ok := gateway.RetryAfterCycles(err); ok {
		return Response{Status: 429, Err: err, RetryAfterCycles: cycles}
	}
	return Response{Status: 503, Err: err}
}

// requestPath returns the path of an HTTP/1.x request line as a view
// into raw, empty when the line is not exactly three space-separated
// fields (the backend parser then produces the 400).
func requestPath(raw []byte) []byte {
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	_, target, ok := bytes.Cut(bytes.TrimRight(line, "\r"), []byte(" "))
	if !ok {
		return nil
	}
	path, proto, ok := bytes.Cut(target, []byte(" "))
	if !ok || bytes.IndexByte(proto, ' ') >= 0 {
		return nil
	}
	return path
}

// maxRequestHead bounds a request head: it is read on the trusted side,
// so a client that never ends it must not grow host memory.
const maxRequestHead = 64 << 10

// ErrHeadTooLarge rejects a request head over maxRequestHead bytes.
var ErrHeadTooLarge = errors.New("httpd: request head too large")

// headPrealloc caps the capacity ReadRequestHead gives its copy up
// front. What is buffered may run past the head (a body, pipelined
// bytes), and the copy lives as long as the request is queued; a longer
// head grows it by append.
const headPrealloc = 512

// ReadRequestHead reads bytes up to and including the blank line that
// terminates an HTTP request head. The cap applies to every buffer-full
// of a line, not only to complete lines, so a newline-less stream stops
// within one bufio buffer of it. The head is returned as a copy, sized
// once from what is buffered when its first line is read (at most
// headPrealloc): a short head that arrived in one segment costs one
// allocation.
func ReadRequestHead(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	lineStart := 0
	for {
		chunk, err := r.ReadSlice('\n')
		if buf == nil {
			buf = make([]byte, 0, min(len(chunk)+r.Buffered(), headPrealloc))
		}
		buf = append(buf, chunk...)
		if len(buf) > maxRequestHead {
			return nil, ErrHeadTooLarge
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF) && len(buf) > 0:
			return buf, nil
		case err != nil:
			return nil, err
		}
		if line := buf[lineStart:]; string(line) == "\r\n" || string(line) == "\n" {
			return buf, nil
		}
		lineStart = len(buf)
	}
}

// WriteHTTPResponse renders resp on the wire with Connection: close,
// including a Retry-After header when the response carries a retry
// hint, in one Write.
func WriteHTTPResponse(w io.Writer, resp Response) {
	_, _ = w.Write(appendResponse(nil, resp))
}

// responseHeadroom covers a rendered head with the numbers the server
// emits: the status line, the fixed headers and a Retry-After.
const responseHeadroom = 128

// appendResponse appends resp as HTTP/1.1 to dst: status line,
// Content-Length, Retry-After when the response carries a retry hint,
// Connection: close, then the body — resp.Err's text and a newline
// when there is no body but an error. dst is grown once, up front.
func appendResponse(dst []byte, resp Response) []byte {
	status := resp.Status
	if status == 0 {
		status = 500
	}
	errText, errBody := "", resp.Body == nil && resp.Err != nil
	length := len(resp.Body)
	if errBody {
		errText = resp.Err.Error()
		length = len(errText) + 1
	}
	dst = slices.Grow(dst, responseHeadroom+length)
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, StatusText(status)...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(length), 10)
	dst = append(dst, "\r\n"...)
	if resp.RetryAfterCycles > 0 {
		dst = append(dst, "Retry-After: "...)
		dst = strconv.AppendInt(dst, int64(gateway.RetrySeconds(resp.RetryAfterCycles)), 10)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "Connection: close\r\n\r\n"...)
	if errBody {
		return append(append(dst, errText...), '\n')
	}
	return append(dst, resp.Body...)
}

// StatusText returns the reason phrase for the status codes the server
// emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 401:
		return "Unauthorized"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 408:
		return "Request Timeout"
	case 429:
		return "Too Many Requests"
	case 503:
		return "Service Unavailable"
	default:
		return "Internal Server Error"
	}
}
