package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// The in-process replay serves connection 0's request bytes through the
// stack the server binary builds — same constructors, same settings,
// one goroutine, no socket and no submission queues — to read the two
// numbers that do not depend on the host: virtual nanoseconds and heap
// allocations per request. InterArrival is 1 ns (bench_test.go's
// convention) so the virtual clock counts service time, not the
// servers' default 100 µs of modelled idle time between arrivals.

// cacheCapacity is sdrad-kvd's and sdrad-cluster's default -capacity.
const cacheCapacity = 64 << 20

// replayChunks is how many equal parts a replay is timed in; the host
// time per request is the median part's.
const replayChunks = 5

// replayBatch is how many requests are served between two checks of
// the replies.
const replayBatch = 2000

// replayClient is the client id the servers would give connection 0.
const replayClient = 1

// stack is one in-process serving stack.
type stack struct {
	// serve reads one request from r, handles it and writes the reply
	// to w, recording a span around each call into a layer.
	serve func(r *bufio.Reader, w *bufio.Writer, tr *tracer, id int32) error
	// virtual is the stack's total virtual time.
	virtual func() time.Duration
	close   func() error
}

func kvServerConfig(dataDir string) kvstore.ServerConfig {
	cfg := kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Nanosecond}
	if dataDir != "" {
		cfg.Persist = &kvstore.PersistConfig{Dir: dataDir} // log only, no fsync: see serverArgs
	}
	return cfg
}

// kvServe is the request path shared by sdrad-kvd's and sdrad-cluster's
// connection loops: parse a command, handle it, render the response,
// flush. markAttacks is kvd's rule that a value starting with the
// attack marker makes the SET malicious; the cluster binary has none.
func kvServe(handle func(context.Context, int, workload.Request) kvstore.Response, markAttacks bool) func(*bufio.Reader, *bufio.Writer, *tracer, int32) error {
	ctx := context.Background()
	return func(r *bufio.Reader, w *bufio.Writer, tr *tracer, id int32) error {
		root := tr.begin(spanRequest, id, -1)
		s := tr.begin(spanProtocolRead, id, root)
		cmd, err := kvstore.ReadCommand(r)
		tr.end(s)
		if err != nil {
			return err
		}
		req := cmd.Req
		if markAttacks && bytes.HasPrefix(req.Value, []byte(kvstore.AttackMarker)) {
			req.Malicious = true
		}
		s = tr.begin(spanHandle, id, root)
		resp := handle(ctx, replayClient, req)
		tr.end(s)
		s = tr.begin(spanProtocolWrite, id, root)
		if err = kvstore.WriteResponse(w, req, resp); err == nil {
			err = w.Flush()
		}
		tr.end(s)
		tr.end(root)
		return err
	}
}

func newGateway() (*gateway.Gateway, error) {
	table, err := gateway.ParseTable(strings.NewReader(tenantsTable()))
	if err != nil {
		return nil, err
	}
	// The binaries' flag defaults, with the workload's refill rate.
	return gateway.New(gateway.Config{
		Table:           table,
		Limits:          gateway.Limits{Burst: 8, RefillEvery: tenantRefillEvery, MaxInflight: 64},
		QuarantineAfter: 3,
	})
}

func newHTTPPool(shards int) (*httpd.Pool, error) {
	pool, err := httpd.NewPool(core.DefaultConfig(), httpd.Config{Mode: httpd.ModeSDRaD, InterArrival: time.Nanosecond}, shards)
	if err != nil {
		return nil, err
	}
	pool.HandleFunc("/", []byte(httpBody))
	pool.HandleFunc("/health", []byte("ok\n"))
	return pool, nil
}

func newRouter(sp spec) (*cluster.Router, error) {
	return cluster.NewRouter(cluster.RouterConfig{
		Nodes:         sp.shards,
		Replicas:      sp.replicas,
		LeaseCycles:   cluster.DefaultLeaseCycles,
		Sys:           core.DefaultConfig(),
		Server:        kvServerConfig(""),
		ShardsPerNode: 1,
		Capacity:      cacheCapacity,
	})
}

// newStack builds sp's serving stack in-process. dataDir is where a
// durable workload keeps its log.
func newStack(sp spec, dataDir string) (*stack, error) {
	switch sp.server {
	case "sdrad-cluster":
		router, err := newRouter(sp)
		if err != nil {
			return nil, err
		}
		return &stack{
			serve:   kvServe(router.HandleContext, false),
			virtual: func() time.Duration { return time.Duration(router.VirtualTime()) },
			close:   router.Close,
		}, nil
	case "sdrad-httpd":
		pool, err := newHTTPPool(sp.shards)
		if err != nil {
			return nil, err
		}
		gw, err := newGateway()
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		return &stack{
			virtual: pool.TotalVirtualTime,
			close:   func() error { return nil },
			// The request path of httpd.NetServer with a gateway
			// installed: bearer token, authenticate, admit, serve,
			// report the outcome, render.
			serve: func(r *bufio.Reader, w *bufio.Writer, tr *tracer, id int32) error {
				root := tr.begin(spanRequest, id, -1)
				s := tr.begin(spanProtocolRead, id, root)
				raw, err := httpd.ReadRequestHead(r)
				tr.end(s)
				if err != nil {
					return err
				}
				s = tr.begin(spanGatewayAdmit, id, root)
				var tenant string
				var ticket *gateway.Ticket
				token, aerr := gateway.BearerToken(raw)
				if aerr != nil {
					err = aerr
				} else {
					tenant, err = gw.Authenticate(token)
				}
				if err == nil {
					ticket, err = gw.Admit(tenant)
				}
				tr.end(s)
				if err != nil {
					return fmt.Errorf("gateway refused the request: %w", err)
				}
				s = tr.begin(spanHandle, id, root)
				resp := pool.ServeContext(ctx, replayClient, raw)
				tr.end(s)
				s = tr.begin(spanGatewayDone, id, root)
				ticket.Done(resp.Contained, resp.Status == 408)
				tr.end(s)
				s = tr.begin(spanProtocolWrite, id, root)
				httpd.WriteHTTPResponse(w, resp)
				err = w.Flush()
				tr.end(s)
				tr.end(root)
				return err
			},
		}, nil
	default:
		pool, err := kvstore.NewPool(core.DefaultConfig(), kvServerConfig(dataDir), sp.shards, cacheCapacity)
		if err != nil {
			return nil, err
		}
		return &stack{
			serve:   kvServe(pool.HandleContext, true),
			virtual: pool.TotalVirtualTime,
			close:   pool.Close,
		}, nil
	}
}

// replayInput is connection 0's traffic: the preload of every
// connection's keys, then the stream in chunks — kv requests, which one
// connection carries back to back, or HTTP requests, one connection
// each.
type replayInput struct {
	preload []workload.Request
	kv      [][]workload.Request
	http    [][][]byte
}

func newReplayInput(sp spec, seed uint64) (*replayInput, error) {
	in := &replayInput{}
	per := sp.replayN / replayChunks
	if sp.http {
		stream := newHTTPStream(seed, 0)
		for c := 0; c < replayChunks; c++ {
			reqs := make([][]byte, per)
			for i := range reqs {
				reqs[i] = stream.next()
			}
			in.http = append(in.http, reqs)
		}
		return in, nil
	}
	in.preload = preloadAll(sp, seed)
	stream, err := newKVStream(sp, seed, 0)
	if err != nil {
		return nil, err
	}
	for c := 0; c < replayChunks; c++ {
		reqs := make([]workload.Request, per)
		for i := range reqs {
			reqs[i] = stream.next()
		}
		in.kv = append(in.kv, reqs)
	}
	return in, nil
}

// renderKV renders reqs as the bytes one connection would carry.
func renderKV(reqs []workload.Request) []byte {
	var raw []byte
	for _, req := range reqs {
		raw = append(raw, workload.RenderKVText(req)...)
	}
	return raw
}

// replayResult is what one replay measured.
type replayResult struct {
	requests  int
	failed    int
	hostNS    spread  // per request, over the chunks
	virtualNS float64 // per request, exact
	allocs    float64 // per request, exact up to runtime background work
}

// replay serves in through st, timing each chunk and checking every
// reply against the same model the socket client uses, outside the
// timed and counted sections.
func replay(st *stack, in *replayInput, tr *tracer) (replayResult, error) {
	var out bytes.Buffer
	out.Grow(replayBatch * 2048) // beyond the largest batch of replies: no growth inside a count
	w := bufio.NewWriter(&out)
	m := make(model)
	var res replayResult

	if len(in.preload) > 0 {
		r := bufio.NewReader(bytes.NewReader(renderKV(in.preload)))
		for range in.preload {
			if err := st.serve(r, w, nil, 0); err != nil {
				return res, fmt.Errorf("replay preload: %w", err)
			}
		}
		if failed := verifyKV(&out, in.preload, m); failed > 0 {
			return res, fmt.Errorf("replay preload: %d wrong replies", failed)
		}
	}

	var ms0, ms1 runtime.MemStats
	var mallocs uint64
	var perReq []float64
	id := int32(0)
	v0 := st.virtual()
	for c := 0; c < replayChunks; c++ {
		var n int
		var r *bufio.Reader
		one := bytes.NewReader(nil)
		if in.http != nil {
			n = len(in.http[c])
		} else {
			n = len(in.kv[c])
			r = bufio.NewReader(bytes.NewReader(renderKV(in.kv[c])))
		}
		runtime.GC()
		var elapsed time.Duration
		// Timed and counted in batches, with the replies checked in
		// between: the reply buffer then stays small enough to sit in
		// cache, as a socket buffer would.
		for lo := 0; lo < n; lo += replayBatch {
			hi := min(lo+replayBatch, n)
			out.Reset()
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				if in.http != nil {
					// sdrad-httpd serves one request per connection and
					// so builds a bufio.Reader per request.
					one.Reset(in.http[c][i])
					r = bufio.NewReader(one)
				}
				if err := st.serve(r, w, tr, id); err != nil {
					return res, fmt.Errorf("replay request %d: %w", id, err)
				}
				id++
			}
			elapsed += time.Since(t0)
			runtime.ReadMemStats(&ms1)
			mallocs += ms1.Mallocs - ms0.Mallocs
			if in.http != nil {
				res.failed += verifyHTTP(&out, hi-lo)
			} else {
				res.failed += verifyKV(&out, in.kv[c][lo:hi], m)
			}
		}
		perReq = append(perReq, float64(elapsed.Nanoseconds())/float64(n))
		res.requests += n
	}
	res.hostNS = summarise(perReq)
	res.virtualNS = float64(st.virtual()-v0) / float64(res.requests)
	res.allocs = float64(mallocs) / float64(res.requests)
	return res, nil
}

// verifyKV parses one reply per request out of buf and checks it
// against the model, returning how many were wrong. A reply stream that
// stops parsing fails every request from that point on.
func verifyKV(buf *bytes.Buffer, reqs []workload.Request, m model) int {
	rd := newKVReader(buf)
	failed := 0
	for i, req := range reqs {
		reply, err := rd.read()
		if err != nil {
			return failed + len(reqs) - i
		}
		if !m.check(req, reply) {
			failed++
		}
	}
	return failed
}

// verifyHTTP parses n responses out of buf, returning how many were
// not a 200 with the index page.
func verifyHTTP(buf *bytes.Buffer, n int) int {
	r := bufio.NewReader(buf)
	for i := 0; i < n; i++ {
		reply, err := readHTTPReply(r)
		if err != nil || reply.status != 200 || string(reply.body) != httpBody {
			return n - i
		}
	}
	return 0
}

// runReplay builds a fresh stack for sp and replays in through it.
func runReplay(sp spec, in *replayInput, tr *tracer) (res replayResult, err error) {
	dataDir := ""
	if sp.durable {
		dataDir = filepath.Join(workRoot, "run", sp.name, "replay-data")
		if err := os.RemoveAll(dataDir); err != nil {
			return res, err
		}
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return res, err
		}
		defer func() { err = errors.Join(err, os.RemoveAll(dataDir)) }()
	}
	st, err := newStack(sp, dataDir)
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, st.close()) }()
	return replay(st, in, tr)
}
