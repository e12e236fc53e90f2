package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
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

func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	raw, err := ReadRequestHead(bufio.NewReader(conn))
	if err != nil {
		n.Logf("conn %d read: %v", id, err)
		return
	}
	WriteHTTPResponse(conn, n.dispatch(id, raw))
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
	if path == "/healthz" {
		// Unauthenticated by design: load-balancer probes carry no
		// credentials, and the document holds no tenant secrets (only
		// tenant names and counters). httpd's workers hold no durable
		// state, so it carries drain state and tenant counters only.
		h := n.Health()
		return Response{Status: h.Status(), Body: h.JSON()}
	}
	token, aerr := gateway.BearerToken(raw)
	if aerr != nil {
		n.Logf("conn %d auth rejected: %v", id, aerr)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	tenant, err := gw.Authenticate(token)
	if err != nil {
		n.Logf("conn %d auth rejected: %v", id, err)
		return Response{Status: 401, Body: []byte("unauthorized\n")}
	}
	if path == "/drainz" {
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
		n.LogContained(id, tenant)
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

// requestPath extracts the path from an HTTP/1.x request line, "" when
// malformed (the backend parser then produces the 400).
func requestPath(raw []byte) string {
	line := raw
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	parts := bytes.Split(bytes.TrimRight(line, "\r"), []byte(" "))
	if len(parts) != 3 {
		return ""
	}
	return string(parts[1])
}

// maxRequestHead bounds a request head: it is read on the trusted side,
// so a client that never ends it must not grow host memory.
const maxRequestHead = 64 << 10

// ErrHeadTooLarge rejects a request head over maxRequestHead bytes.
var ErrHeadTooLarge = errors.New("httpd: request head too large")

// ReadRequestHead reads bytes up to and including the blank line that
// terminates an HTTP request head. The cap applies to every buffer-full
// of a line, not only to complete lines, so a newline-less stream stops
// within one bufio buffer of it.
func ReadRequestHead(r *bufio.Reader) ([]byte, error) {
	var buf []byte
	lineStart := 0
	for {
		chunk, err := r.ReadSlice('\n')
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
		if line := string(buf[lineStart:]); line == "\r\n" || line == "\n" {
			return buf, nil
		}
		lineStart = len(buf)
	}
}

// WriteHTTPResponse renders resp on the wire with Connection: close,
// including a Retry-After header when the response carries a retry
// hint.
func WriteHTTPResponse(w io.Writer, resp Response) {
	status := resp.Status
	if status == 0 {
		status = 500
	}
	body := resp.Body
	if body == nil && resp.Err != nil {
		body = []byte(resp.Err.Error() + "\n")
	}
	retry := ""
	if resp.RetryAfterCycles > 0 {
		retry = fmt.Sprintf("Retry-After: %d\r\n", gateway.RetrySeconds(resp.RetryAfterCycles))
	}
	_, err := fmt.Fprintf(w, "HTTP/1.1 %d %s\r\nContent-Length: %d\r\n%sConnection: close\r\n\r\n",
		status, StatusText(status), len(body), retry)
	if err != nil {
		return
	}
	_, _ = w.Write(body)
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
