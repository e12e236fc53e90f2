package kvstore

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/serve"
	"repro/internal/workload"
)

// AttackMarker makes a SET over the wire malicious: values with this
// prefix stand in for crafted exploit payloads against the parser.
const AttackMarker = "!!exploit"

// NetServer serves the memcached text protocol over TCP on top of a
// Pool. The embedded serve.Frontend owns the sockets, the lifecycle,
// the gateway and the submission queues; this type adds the protocol:
// the command loop, the auth/health/scan rendering, and the key-hash
// shard pick.
type NetServer struct {
	*Frontend
	pool *Pool
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
	n := &NetServer{pool: p}
	// scratch[i] is shard i's reusable batch (batches for one shard never
	// overlap).
	scratch := make([][]BatchRequest, p.Workers())
	n.Frontend = serve.New(serve.Backend[workload.Request, Response]{
		Name:      "kvstore",
		ServeConn: n.serveConn,
		Batch: func(si int, calls []*serve.Call[workload.Request, Response]) {
			batch := scratch[si][:0]
			for _, c := range calls {
				batch = append(batch, BatchRequest{Ctx: c.Ctx, ClientID: c.ClientID, Req: c.Req})
			}
			p.handleBatch(si, batch, func(i int, resp Response) { calls[i].Resp = resp })
			clear(batch)
			scratch[si] = batch
		},
		// Every operation on a key lands on the shard that owns it.
		Pick:   func(req workload.Request, _ func(int) int64) int { return p.shardIndex(req.Key) },
		Shed:   func(err error) Response { return Response{Err: err} },
		Shards: p.Workers(),
		Health: p.Health,
		Drain:  p.Drain,
		Close:  p.Close,
	}, logger)
	if err := n.Queue(maxInflight, maxBatch); err != nil {
		return nil, err
	}
	return n, nil
}

// Frontend is the serving frontend at the kv protocol's types, the one
// ServeCommands submits a connection's data commands through.
type Frontend = serve.Frontend[workload.Request, Response]

// Session is one connection's side of ServeCommands: what the shared
// command loop cannot know about the store or the tenant behind it.
type Session interface {
	// Pipeline returns the request a data command submits without
	// waiting for the commands before it, or false to make the command
	// a barrier that Serve answers.
	Pipeline(req workload.Request) (workload.Request, bool)
	// Serve answers a barrier command. Every earlier reply has been
	// written to w.
	Serve(w io.Writer, cmd Command) error
	// Reply renders the response to a pipelined request.
	Reply(w io.Writer, req workload.Request, resp Response) error
}

// ServeCommands runs the command loop for one connection: read a
// command and submit it through f, or hand it to s; quit, EOF or an
// error from s ends it. A data command s pipelines is submitted as soon
// as it is parsed, so a window a client sent in one segment reaches each
// shard queue as one batch; a lone one (nothing pending, nothing
// buffered behind it) is served by f.Do, on this goroutine when its
// shard queue is idle. A reply the loop cannot render at once (see
// handle) waits in a FIFO until the loop settles: before every read of
// the socket, before a barrier command, before the CLIENT_ERROR of a
// malformed command, and on the way out, the loop waits for each
// pending request in order and renders its reply. Replies therefore
// keep command order; a key's requests keep their order because its
// shard queue is FIFO, and pipelined requests on different shards run
// concurrently. Replies collect in the serve.Buffer pair and leave when
// the loop next reads the socket — one write per window — and, whatever
// ended the loop, before it returns.
//
// stats, health, auth and scan are barriers, and so is every command
// after a reply that reported a detection (a contained violation or a
// budget preemption): that connection is back to one request in flight,
// so an attacker's exploits do not share batches with anyone's requests
// once one was seen. A submission refused as overloaded while the
// connection has requests pending is retried once after they settle,
// so a connection is never shed for its own backlog.
//
// A malformed command answers CLIENT_ERROR and closes the connection:
// ReadCommand rejects a bad header before consuming its data block, so
// reading on would parse attacker-supplied bytes as commands.
func ServeCommands(id int, conn io.ReadWriter, f *Frontend, s Session) {
	c := &commandLoop{id: id, f: f, s: s}
	r, w := serve.Buffer(conn, c.settle)
	c.w = w
	for c.err == nil {
		cmd, rerr := ReadCommand(r)
		if rerr != nil {
			if errors.Is(rerr, ErrProtocol) && c.settle() == nil {
				_, _ = fmt.Fprintf(w, "CLIENT_ERROR %v\r\n", rerr)
			}
			break
		}
		if cmd.Quit {
			break
		}
		c.handle(&cmd, r.Buffered() > 0)
	}
	err := c.settle()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		f.Logf("conn %d write: %v", id, err)
	}
}

// commandLoop is one connection's ServeCommands state.
type commandLoop struct {
	id int
	f  *Frontend
	s  Session
	w  *bufio.Writer
	// pending holds the submitted requests whose replies are not yet
	// rendered, in command order.
	pending []pendingReply
	// demoted is set by the first reply that reports a detection.
	demoted bool
	// err is the first error from s or from writing a reply; it ends
	// the loop.
	err error
}

// pendingReply is one submitted request waiting for its reply.
type pendingReply struct {
	req workload.Request
	p   serve.Pending[workload.Request, Response]
}

// handle pipelines cmd or, when it is a barrier, settles and serves it.
// more reports input already buffered behind cmd. A lone request — no
// reply ahead of it, nothing buffered behind it — is served by Do, so
// on an idle shard it runs on this goroutine; the loop would settle it
// at its next read anyway. A window's first request is answered at
// once when its call has already completed (always, on a serial
// frontend), so only a window's requests wait in the FIFO.
func (c *commandLoop) handle(cmd *Command, more bool) {
	if cmd.data() && !c.demoted {
		if req, ok := c.s.Pipeline(cmd.Req); ok {
			if len(c.pending) == 0 && !more {
				c.reply(req, c.f.Do(c.id, req))
				return
			}
			p := c.f.Submit(c.id, req)
			if p.Overloaded() && len(c.pending) > 0 && c.settle() == nil {
				p = c.f.Submit(c.id, req)
			}
			if len(c.pending) == 0 && p.Settled() {
				c.reply(req, c.f.Wait(&p))
				return
			}
			c.pending = append(c.pending, pendingReply{req: req, p: p})
			return
		}
	}
	if c.settle() == nil {
		c.err = c.s.Serve(c.w, *cmd)
	}
}

// settle waits for every pending request in order and renders its
// reply. After an error it still waits for each, rendering nothing, so
// no request outlives the loop that submitted it.
func (c *commandLoop) settle() error {
	for i := range c.pending {
		c.reply(c.pending[i].req, c.f.Wait(&c.pending[i].p))
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	return c.err
}

// reply demotes the connection if resp reports a detection, and renders
// it unless the loop already failed.
func (c *commandLoop) reply(req workload.Request, resp Response) {
	_, preempted := core.IsBudget(resp.Err)
	c.demoted = c.demoted || resp.Contained || preempted
	if c.err == nil {
		c.err = c.s.Reply(c.w, req, resp)
	}
}

// serveConn runs the command loop for one connection.
func (n *NetServer) serveConn(id int, conn io.ReadWriter) {
	ServeCommands(id, conn, n.Frontend, &session{n: n, id: id})
}

// session is sdrad-kvd's side of one connection. With a gateway
// installed the connection carries tenant state: data and scan commands
// require a prior successful auth command and pass per-tenant
// admission, one at a time — every command is a barrier, because
// admission reads the tenant's inflight count and circuit breaker,
// which earlier completions change.
type session struct {
	n      *NetServer
	id     int
	tenant string
	authed bool
}

// Pipeline marks an attack payload and pipelines the request unless a
// gateway is installed.
func (s *session) Pipeline(req workload.Request) (workload.Request, bool) {
	return markAttack(req), s.n.Gateway() == nil
}

// markAttack makes a SET whose value carries AttackMarker malicious.
func markAttack(req workload.Request) workload.Request {
	if bytes.HasPrefix(req.Value, []byte(AttackMarker)) {
		req.Malicious = true
	}
	return req
}

// Serve answers a barrier command.
func (s *session) Serve(w io.Writer, cmd Command) error {
	switch {
	case cmd.Auth:
		return s.handleAuth(w, cmd.Token)
	case cmd.Health:
		return s.n.writeHealth(w)
	case cmd.Stats:
		return WriteStats(w, s.n.pool)
	}
	// Data and scan commands pass tenant admission first; a rejection
	// is a SERVER_ERROR line carrying the typed error's deterministic
	// rendering. Every scan page is charged one admission token —
	// pagination is the anti-starvation contract: a tenant walking
	// the whole table re-enters admission per page.
	var ticket *gateway.Ticket
	if gw := s.n.Gateway(); gw != nil {
		if !s.authed {
			_, err := io.WriteString(w, "CLIENT_ERROR auth required\r\n")
			return err
		}
		var aerr error
		if ticket, aerr = gw.Admit(s.tenant); aerr != nil {
			_, err := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", aerr)
			return err
		}
	}
	if cmd.Scan {
		return s.n.handleScan(w, cmd, ticket)
	}
	return s.handleData(w, markAttack(cmd.Req), ticket)
}

// Reply renders a data command's response and reports a contained
// violation to the paced log.
func (s *session) Reply(w io.Writer, req workload.Request, resp Response) error {
	if resp.Contained {
		s.n.LogPaced(serve.EventContained, s.id, s.tenant, nil)
	}
	return WriteResponse(w, req, resp)
}

// handleAuth binds the connection to a tenant. Every failure mode
// answers the same uniform line — the response never reveals whether
// the token was close to (or part of) a valid credential — and is
// logged through the paced log (a client can send rejected tokens at
// will).
func (s *session) handleAuth(w io.Writer, token string) error {
	gw := s.n.Gateway()
	if gw == nil {
		_, err := io.WriteString(w, "CLIENT_ERROR gateway disabled\r\n")
		return err
	}
	name, aerr := gw.Authenticate([]byte(token))
	s.tenant, s.authed = name, aerr == nil
	if aerr != nil {
		s.n.LogPaced(serve.EventAuthRejected, s.id, "", aerr)
		_, err := io.WriteString(w, "CLIENT_ERROR unauthorized\r\n")
		return err
	}
	_, err := io.WriteString(w, "OK\r\n")
	return err
}

// handleData executes one admitted data command, waiting for it, and
// reports its outcome (contained violation, budget preemption) back to
// the tenant's circuit breaker.
func (s *session) handleData(w io.Writer, req workload.Request, ticket *gateway.Ticket) error {
	resp := s.n.Do(s.id, req)
	if ticket != nil {
		_, preempted := core.IsBudget(resp.Err)
		ticket.Done(resp.Contained, preempted)
	}
	return s.Reply(w, req, resp)
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
