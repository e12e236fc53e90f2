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
// owns the sockets, the lifecycle, the gateway and the submission
// queues; this type adds the protocol: head parsing, response
// rendering, the admission status mapping, the /healthz and /drainz
// endpoints, and the least-loaded worker pick.
type NetServer struct {
	*serve.Frontend[[]byte, Response]
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
	n := &NetServer{}
	var rr atomic.Uint64
	// scratch[i] is worker i's reusable batch (batches for one worker
	// never overlap).
	scratch := make([][]BatchRequest, p.Workers())
	n.Frontend = serve.New(serve.Backend[[]byte, Response]{
		Name:      "httpd",
		ServeConn: n.serveConn,
		Batch: func(si int, calls []*serve.Call[[]byte, Response]) {
			batch := scratch[si][:0]
			for _, c := range calls {
				batch = append(batch, BatchRequest{Ctx: c.Ctx, ClientID: c.ClientID, Raw: c.Req})
			}
			p.serveBatch(si, batch, func(i int, resp Response) { calls[i].Resp = resp })
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
		Shards: p.Workers(),
	}, logger)
	if err := n.Queue(maxInflight, maxBatch); err != nil {
		return nil, err
	}
	return n, nil
}

// connBuffers is the scratch one connection borrows from connPool: the
// reader its head is read through, the buffer the head is read into and
// the buffer its response is rendered into. Nothing a connection needs
// outlives its turn with them — the reader is reset to nil before it
// goes back, and the head goes back only once its request is answered —
// so none is allocated per connection.
type connBuffers struct {
	r    *bufio.Reader
	head []byte
	out  []byte
}

var connPool = sync.Pool{New: func() any { return &connBuffers{r: bufio.NewReader(nil)} }}

// maxPooledBuffer bounds the head and response buffers a connection
// hands back to connPool, so one large head or page does not stay
// pinned by the pool.
const maxPooledBuffer = 64 << 10

// serveConn answers the connection's one request: one head read, one
// write of the whole response. A head that cannot be read (a client
// that connects and hangs up, a port scan, an oversized head) is
// answered with nothing and logged through the paced log.
func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	b := connPool.Get().(*connBuffers)
	b.r.Reset(conn)
	raw, err := AppendRequestHead(b.head[:0], b.r)
	b.r.Reset(nil)
	if err != nil {
		n.LogPaced(serve.EventReadFailed, id, "", err)
	} else {
		b.out = appendResponse(b.out[:0], n.dispatch(id, raw))
		_, _ = conn.Write(b.out) // the peer may be gone; there is no one left to tell
	}
	b.head = raw
	if cap(b.head) > maxPooledBuffer {
		b.head = nil
	}
	if cap(b.out) > maxPooledBuffer {
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

// headPrealloc caps the capacity AppendRequestHead gives an empty
// buffer up front. What is buffered may run past the head (a body,
// pipelined bytes), and the head lives as long as the request is
// queued; a longer head grows it by append.
const headPrealloc = 512

// ReadRequestHead reads a request head into a copy of its own: it is
// AppendRequestHead(nil, r).
func ReadRequestHead(r *bufio.Reader) ([]byte, error) {
	return AppendRequestHead(nil, r)
}

// AppendRequestHead reads bytes up to and including the blank line that
// terminates an HTTP request head, appends them to dst and returns the
// extended slice. The cap applies to every buffer-full of a line, not
// only to complete lines, so a newline-less stream stops within one
// bufio buffer of it. A dst with no capacity is sized once from what is
// buffered when the head's first line is read (at most headPrealloc): a
// short head that arrived in one segment costs one allocation, and one
// read into a reused dst none. On error it returns dst as it was given,
// in whatever array it has grown into.
func AppendRequestHead(dst []byte, r *bufio.Reader) ([]byte, error) {
	start, lineStart := len(dst), len(dst)
	for {
		chunk, err := r.ReadSlice('\n')
		if cap(dst) == 0 {
			dst = make([]byte, 0, min(len(chunk)+r.Buffered(), headPrealloc))
		}
		dst = append(dst, chunk...)
		if len(dst)-start > maxRequestHead {
			return dst[:start], ErrHeadTooLarge
		}
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		case errors.Is(err, io.EOF) && len(dst) > start:
			return dst, nil
		case err != nil:
			return dst[:start], err
		}
		if line := dst[lineStart:]; string(line) == "\r\n" || string(line) == "\n" {
			return dst, nil
		}
		lineStart = len(dst)
	}
}

// WriteHTTPResponse renders resp on the wire with Connection: close,
// including a Retry-After header when the response carries a retry
// hint, in one Write. A writer with an AvailableBuffer method (a
// bufio.Writer, a bytes.Buffer) is rendered into directly.
func WriteHTTPResponse(w io.Writer, resp Response) {
	var dst []byte
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		dst = ab.AvailableBuffer()
	}
	_, _ = w.Write(appendResponse(dst, resp))
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
