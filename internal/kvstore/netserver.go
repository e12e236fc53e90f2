package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/workload"
)

// AttackMarker makes a SET over the wire malicious: values with this
// prefix stand in for crafted exploit payloads against the parser.
const AttackMarker = "!!exploit"

// NetServer serves the memcached text protocol over TCP on top of a
// Pool. The embedded serve.Frontend owns the sockets, the lifecycle,
// the gateway, the submission queues and the elastic controller; this
// type adds the protocol: the command loop, the auth/health/scan
// rendering, and the key-hash shard pick.
type NetServer struct {
	*serve.Frontend[workload.Request, Response]
	pool *Pool
}

// newNetServer returns an Initializing server over p (which must be
// initialized: the shard count is fixed here).
func newNetServer(p *Pool, logger *log.Logger) *NetServer {
	n := &NetServer{pool: p}
	// scratch[i] is shard i's reusable batch (batches for one shard never
	// overlap).
	scratch := make([][]BatchRequest, p.Workers())
	n.Frontend = serve.New(serve.Backend[workload.Request, Response]{
		Name:      "kvstore",
		ServeConn: n.serveConn,
		Handle:    p.HandleContext,
		Batch: func(si int, calls []*serve.Call[workload.Request, Response]) {
			batch := scratch[si][:0]
			for _, c := range calls {
				batch = append(batch, BatchRequest{Ctx: c.Ctx, ClientID: c.ClientID, Req: c.Req})
			}
			for i, resp := range p.handleBatch(si, batch) {
				calls[i].Resp = resp
			}
			clear(batch)
			scratch[si] = batch
		},
		// Every operation on a key lands on the shard that owns it.
		Pick:       func(req workload.Request, _ func(int) int64) int { return p.shardIndex(req.Key) },
		Shed:       func(err error) Response { return Response{Err: err} },
		Shards:     p.Workers(),
		Workers:    p.ShardWorkers,
		Resize:     p.ResizeWorkers,
		MaxWorkers: MaxResizeWorkers,
		Health:     p.Health,
		Drain:      p.Drain,
		Close:      p.Close,
	}, logger)
	return n
}

// NewNetServer wraps srv for TCP serving as a one-shard pool; logger
// may be nil to disable logging. The single Server owns one simulated
// core, so request handling is serialized behind the shard lock.
func NewNetServer(srv *Server, logger *log.Logger) *NetServer {
	p := &Pool{lc: lifecycle.NewMachine("kvstore.Pool"), shards: []*kvShard{{srv: srv, cache: srv.cache}}}
	_ = p.lc.Init(nil)  //lint:errclass fresh machine; Init from StateInitializing cannot fail
	_ = p.lc.Start(nil) //lint:errclass inited machine; Start cannot fail
	return NewNetServerPool(p, logger)
}

// NewNetServerPool wraps a Pool for TCP serving; logger may be nil. The
// pool synchronizes internally per shard, so requests for keys on
// different shards execute in parallel.
func NewNetServerPool(p *Pool, logger *log.Logger) *NetServer {
	n := newNetServer(p, logger)
	_ = n.Serving() //lint:errclass a serial frontend allocates nothing in Init; a fresh machine cannot refuse
	return n
}

// NewBatchedNetServerPool wraps a Pool for TCP serving through the
// asynchronous submission layer (serve.Frontend.Queue): one drain loop
// per shard coalesces up to maxBatch queued requests into a single
// pipelined Server.HandleBatch — one domain Enter per worker group
// instead of per request. maxInflight bounds admitted-but-unanswered
// requests across the pool (<= 0 means 1024); at capacity new requests
// are answered SERVER_ERROR immediately with a deterministic
// cycles-quantized retry hint. Call Close after Serve returns to stop
// the drain loops.
func NewBatchedNetServerPool(p *Pool, logger *log.Logger, maxInflight, maxBatch int) (*NetServer, error) {
	n := newNetServer(p, logger)
	n.Queue(maxInflight, maxBatch)
	if err := n.Serving(); err != nil {
		return nil, err
	}
	return n, nil
}

// ServeCommands runs the command loop for one connection: read a
// command, hand it to handle; quit, EOF or a handler error ends it.
// Commands execute one at a time, in order; their replies collect in
// the serve.Buffer pair and leave when the loop next reads the socket
// — one write per window a client pipelined — and, whatever ended the
// loop, before it returns. A malformed command answers CLIENT_ERROR and
// closes the connection: ReadCommand rejects a bad header before
// consuming its data block, so reading on would parse attacker-supplied
// bytes as commands.
func ServeCommands(id int, conn io.ReadWriter, logf func(string, ...any), handle func(w io.Writer, cmd Command) error) {
	r, w := serve.Buffer(conn)
	var err error
	for err == nil {
		cmd, rerr := ReadCommand(r)
		if rerr != nil && !errors.Is(rerr, io.EOF) {
			_, _ = fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", rerr)
		}
		if rerr != nil || cmd.Quit {
			break
		}
		err = handle(w, cmd)
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		logf("conn %d write: %v", id, err)
	}
}

// serveConn runs the command loop for one connection. With a gateway
// installed the connection carries tenant state: data and scan commands
// require a prior successful auth command and pass per-tenant
// admission.
func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	tenant, authed := "", false
	ServeCommands(id, conn, n.Logf, func(w io.Writer, cmd Command) error {
		switch {
		case cmd.Auth:
			return n.handleAuth(w, id, cmd.Token, &tenant, &authed)
		case cmd.Health:
			return n.writeHealth(w)
		case cmd.Stats:
			return WriteStats(w, n.pool)
		}
		// Data and scan commands pass tenant admission first; a rejection
		// is a SERVER_ERROR line carrying the typed error's deterministic
		// rendering. Every scan page is charged one admission token —
		// pagination is the anti-starvation contract: a tenant walking
		// the whole table re-enters admission per page.
		var ticket *gateway.Ticket
		if gw := n.Gateway(); gw != nil {
			if !authed {
				_, err := io.WriteString(w, "CLIENT_ERROR auth required\r\n")
				return err
			}
			var aerr error
			if ticket, aerr = gw.Admit(tenant); aerr != nil {
				_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", aerr)
				return err
			}
		}
		if cmd.Scan {
			return n.handleScan(w, cmd, ticket)
		}
		return n.handleData(w, id, cmd.Req, tenant, ticket)
	})
}

// handleAuth binds connection id to a tenant. Every failure mode
// answers the same uniform line — the response never reveals whether
// the token was close to (or part of) a valid credential — and is
// logged through the paced log (a client can send rejected tokens at
// will).
func (n *NetServer) handleAuth(w io.Writer, id int, token string, tenant *string, authed *bool) error {
	gw := n.Gateway()
	if gw == nil {
		_, err := io.WriteString(w, "CLIENT_ERROR gateway disabled\r\n")
		return err
	}
	name, aerr := gw.Authenticate([]byte(token))
	*tenant, *authed = name, aerr == nil
	if aerr != nil {
		n.LogPaced(serve.EventAuthRejected, id, "", aerr)
		_, err := io.WriteString(w, "CLIENT_ERROR unauthorized\r\n")
		return err
	}
	_, err := io.WriteString(w, "OK\r\n")
	return err
}

// handleData executes one admitted data command and reports its outcome
// (contained violation, budget preemption) back to the tenant's circuit
// breaker.
func (n *NetServer) handleData(w io.Writer, id int, req workload.Request, tenant string, ticket *gateway.Ticket) error {
	if bytes.HasPrefix(req.Value, []byte(AttackMarker)) {
		req.Malicious = true
	}
	resp := n.Do(id, req)
	if ticket != nil {
		_, preempted := core.IsBudget(resp.Err)
		ticket.Done(resp.Contained, preempted)
	}
	if resp.Contained {
		n.LogPaced(serve.EventContained, id, tenant, nil)
	}
	return WriteResponse(w, req, resp)
}

// handleScan serves one admitted scan page. Scans bypass the submission
// queues even on batched servers: a page is a trusted-side metadata
// walk, not domain work.
func (n *NetServer) handleScan(w io.Writer, cmd Command, ticket *gateway.Ticket) error {
	res, serr := n.pool.Scan(cmd.ScanPrefix, cmd.ScanCursor, cmd.ScanLimit)
	if ticket != nil {
		ticket.Done(false, false)
	}
	if serr != nil {
		_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", serr)
		return err
	}
	return WriteScanResponse(w, res)
}

// writeHealth renders the health document as STAT lines: the summary
// state, drain flag, worker count, per-shard states, and (with a
// gateway) per-tenant counters, all in deterministic order.
func (n *NetServer) writeHealth(w io.Writer) error {
	h := n.Health()
	drainInt := 0
	if h.Draining {
		drainInt = 1
	}
	if _, err := fmt.Fprintf(w, "STAT state %s\r\nSTAT draining %d\r\nSTAT workers %d\r\n",
		h.State, drainInt, h.Workers); err != nil {
		return err
	}
	for _, sh := range h.Shards {
		if _, err := fmt.Fprintf(w, "STAT shard_%d %s\r\n", sh.Shard, sh.State); err != nil {
			return err
		}
	}
	for _, t := range h.Tenants {
		if _, err := fmt.Fprintf(w,
			"STAT tenant_%s admitted=%d completed=%d throttled=%d quota=%d quarantine=%d drained=%d detections=%d preemptions=%d quarantines=%d\r\n",
			t.Tenant, t.Admitted, t.Completed, t.Throttled, t.QuotaRejected, t.QuarantineRejected,
			t.Drained, t.Detections, t.Preemptions, t.Quarantines); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}
