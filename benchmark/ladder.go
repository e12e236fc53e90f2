package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	sdrad "repro"
	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/mem"
	"repro/internal/persist"
	"repro/internal/pku"
	"repro/internal/submit"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// The ladder prices each layer from outside: the workload's stream (or,
// below the kvstore, the synthetic operation sized from it — allocate a
// parse buffer, copy the request in, scan it, free it) is driven at
// each successively lower public entry point. This change may not put
// spans inside the layers, so a layer's self time is its rung minus the
// rung below.

// ladderRepeats is how often each rung is timed; the reported host time
// is the median repeat's. ladderOps is the calls per repeat on the
// stream rungs.
const (
	ladderRepeats = 5
	ladderOps     = 10000
)

// rung is one entry point's cost per call.
type rung struct {
	host      spread  // host ns, over the repeats
	virtualNS float64 // exact
	allocs    float64 // exact up to runtime background work
}

// perCall rescales a rung whose op made n calls.
func (r rung) perCall(n int) rung {
	f := float64(n)
	return rung{
		host:      spread{median: r.host.median / f, min: r.host.min / f, max: r.host.max / f},
		virtualNS: r.virtualNS / f,
		allocs:    r.allocs / f,
	}
}

// measureRung times op in ladderRepeats repeats of n calls; op receives
// the call's index across all repeats, so a stream rung walks on
// through its requests. virt, unless nil, reads the layer's virtual
// clock.
func measureRung(n int, op func(i int) error, virt func() time.Duration) (rung, error) {
	var ms0, ms1 runtime.MemStats
	var v0 time.Duration
	if virt != nil {
		v0 = virt()
	}
	perOp := make([]float64, 0, ladderRepeats)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for r := 0; r < ladderRepeats; r++ {
		t0 := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			if err := op(i); err != nil {
				return rung{}, err
			}
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	runtime.ReadMemStats(&ms1)
	total := float64(n * ladderRepeats)
	res := rung{host: summarise(perOp), allocs: float64(ms1.Mallocs-ms0.Mallocs) / total}
	if virt != nil {
		res.virtualNS = float64(virt()-v0) / total
	}
	return res, nil
}

// ladderRun carries one ladder's inputs and collects its metrics.
type ladderRun struct {
	sp      spec
	preload []workload.Request
	// marked carries Request.Malicious the way sdrad-kvd sets it from
	// the wire; benign is the same stream with the flag left off, for
	// the native/SDRaD pair behind the paper's E1 overhead figure.
	marked, benign []workload.Request
	// opSize is the mean rendered request length, the size of the
	// synthetic operation's parse buffer; setSize the mean rendered SET
	// length, the size of a WAL record.
	opSize, setSize int
	// http is connection 0's HTTP stream, for the httpd rungs.
	http [][]byte

	values map[string]float64
	hosts  map[string]spread
}

// host records a rung's host time under name, with its fastest and
// slowest repeat.
func (l *ladderRun) host(name string, r rung) {
	l.values[name] = r.host.median
	l.hosts[name] = r.host
}

func newLadderRun(sp spec, seed uint64) (*ladderRun, error) {
	l := &ladderRun{sp: sp, values: make(map[string]float64), hosts: make(map[string]spread)}
	shape := sp.kvShape()
	l.preload = preloadAll(shape, seed)
	stream, err := newKVStream(shape, seed, 0)
	if err != nil {
		return nil, err
	}
	var bytesAll, bytesSet, sets int
	for i := 0; i < ladderOps*ladderRepeats; i++ {
		req := stream.next()
		n := len(workload.RenderKVText(req))
		bytesAll += n
		if req.Op == workload.OpSet {
			bytesSet += n
			sets++
		}
		l.benign = append(l.benign, req)
		req.Malicious = isAttack(req)
		l.marked = append(l.marked, req)
	}
	requests := newHTTPStream(seed, 0)
	for range l.marked {
		l.http = append(l.http, requests.next())
	}
	l.opSize = bytesAll / len(l.marked)
	l.setSize = bytesSet / max(sets, 1)
	return l, nil
}

// preloadVia stores every key through handle.
func (l *ladderRun) preloadVia(handle func(workload.Request) kvstore.Response) error {
	for _, req := range l.preload {
		if resp := handle(req); resp.Err != nil || !resp.OK {
			return fmt.Errorf("ladder preload of %s: ok=%v err=%v", req.Key, resp.OK, resp.Err)
		}
	}
	return nil
}

// streamRung preloads a store through handle and then serves reqs
// through it. The only error a response may carry is the containment of
// a request the stream marked malicious.
func (l *ladderRun) streamRung(reqs []workload.Request, handle func(workload.Request) kvstore.Response, virt func() time.Duration) (rung, error) {
	if err := l.preloadVia(handle); err != nil {
		return rung{}, err
	}
	return measureRung(ladderOps, func(i int) error {
		if resp := handle(reqs[i]); resp.Err != nil && !(reqs[i].Malicious && resp.Contained) {
			return fmt.Errorf("ladder: %v %s: %w", reqs[i].Op, reqs[i].Key, resp.Err)
		}
		return nil
	}, virt)
}

// serverRung serves reqs on a fresh kvstore.Server in the given mode,
// in waves of batch through HandleBatch when batch > 1.
func (l *ladderRun) serverRung(mode kvstore.Mode, reqs []workload.Request, batch int) (rung, error) {
	sys := core.NewSystem(core.DefaultConfig())
	cache, err := kvstore.NewCache(sys, kvstore.StorageUDIForPool, cacheCapacity)
	if err != nil {
		return rung{}, err
	}
	cfg := kvServerConfig("")
	cfg.Mode = mode
	srv, err := kvstore.NewServer(sys, cache, cfg)
	if err != nil {
		return rung{}, err
	}
	handle := func(req workload.Request) kvstore.Response { return srv.Handle(replayClient, req) }
	if batch <= 1 {
		return l.streamRung(reqs, handle, sys.Clock().Now)
	}
	if err := l.preloadVia(handle); err != nil {
		return rung{}, err
	}
	wave := make([]kvstore.BatchRequest, batch)
	res, err := measureRung(ladderOps/batch, func(i int) error {
		for j := range wave {
			wave[j] = kvstore.BatchRequest{ClientID: replayClient, Req: reqs[i*batch+j]}
		}
		for j, resp := range srv.HandleBatch(wave) {
			if resp.Err != nil && !(wave[j].Req.Malicious && resp.Contained) {
				return resp.Err
			}
		}
		return nil
	}, sys.Clock().Now)
	return res.perCall(batch), err
}

// kvRungs drives the stream at Router.HandleContext, Pool.HandleContext
// and Server.Handle, then the E1 pair on the benign stream and waves of
// 32 through HandleBatch. It returns the rungs self times are taken
// between.
func (l *ladderRun) kvRungs() (router, pool, server rung, err error) {
	ctx := context.Background()
	clusterSpec, err := findSpec("cluster-routed")
	if err != nil {
		return router, pool, server, err
	}
	r, err := newRouter(clusterSpec)
	if err != nil {
		return router, pool, server, err
	}
	router, err = l.streamRung(l.marked, func(req workload.Request) kvstore.Response {
		return r.HandleContext(ctx, replayClient, req)
	}, nil)
	if err = errors.Join(err, r.Close()); err != nil {
		return router, pool, server, err
	}
	l.host("cluster.router_handle_ns", router)
	l.values["cluster.router_allocs"] = router.allocs

	p, err := kvstore.NewPool(core.DefaultConfig(), kvServerConfig(""), specs[0].shards, cacheCapacity)
	if err != nil {
		return router, pool, server, err
	}
	pool, err = l.streamRung(l.marked, func(req workload.Request) kvstore.Response {
		return p.HandleContext(ctx, replayClient, req)
	}, nil)
	if err = errors.Join(err, p.Close()); err != nil {
		return router, pool, server, err
	}
	l.host("kvstore.pool_handle_ns", pool)

	if server, err = l.serverRung(kvstore.ModeSDRaD, l.marked, 1); err != nil {
		return router, pool, server, err
	}
	l.host("kvstore.server_handle_ns", server)
	l.values["kvstore.server_virtual_ns"] = server.virtualNS
	benign := server
	if l.sp.kvShape().attackEvery > 0 {
		if benign, err = l.serverRung(kvstore.ModeSDRaD, l.benign, 1); err != nil {
			return router, pool, server, err
		}
	}
	native, err := l.serverRung(kvstore.ModeNative, l.benign, 1)
	if err != nil {
		return router, pool, server, err
	}
	l.values["kvstore.native_virtual_ns"] = native.virtualNS
	l.values["kvstore.sdrad_overhead_pct"] = (benign.virtualNS - native.virtualNS) / native.virtualNS * 100
	batched, err := l.serverRung(kvstore.ModeSDRaD, l.marked, 32)
	if err != nil {
		return router, pool, server, err
	}
	l.host("kvstore.batch32_host_ns", batched)
	l.values["kvstore.batch32_virtual_ns"] = batched.virtualNS
	return router, pool, server, nil
}

// sdradRungs drives the synthetic operation — the in-domain half of a
// request as kvstore's parser performs it: allocate the parse buffer,
// copy the bytes in, read them back for the scan, free the buffer — at
// Domain.Do, Pool.Do and AsyncPool.Do. It returns the Domain.Do rung.
func (l *ladderRun) sdradRungs() (rung, error) {
	ctx := context.Background()
	raw, tmp := make([]byte, l.opSize), make([]byte, l.opSize)
	op := func(c *sdrad.Ctx) error {
		buf := c.MustAlloc(len(raw))
		c.MustStore(buf, raw)
		c.MustLoad(buf, tmp)
		c.MustFree(buf)
		return nil
	}
	sup := sdrad.New()
	dom, err := sup.NewDomain()
	if err != nil {
		return rung{}, err
	}
	domain, err := measureRung(ladderOps, func(int) error { return dom.Do(ctx, op) }, sup.VirtualTime)
	if err != nil {
		return rung{}, err
	}
	l.host("sdrad.domain_do_ns", domain)
	l.values["sdrad.domain_do_virtual_ns"] = domain.virtualNS
	l.values["sdrad.domain_do_allocs"] = domain.allocs

	pool, err := sdrad.NewPool(specs[0].shards)
	if err != nil {
		return rung{}, err
	}
	pooled, err := measureRung(ladderOps, func(int) error { return pool.Do(ctx, op) }, nil)
	if err != nil {
		return rung{}, errors.Join(err, pool.Close())
	}
	l.host("sdrad.pool_do_ns", pooled)
	apool, err := sdrad.NewAsyncPool(pool, sdrad.AsyncConfig{})
	if err != nil {
		return rung{}, errors.Join(err, pool.Close())
	}
	async, err := measureRung(ladderOps, func(int) error { return apool.Do(ctx, op) }, nil)
	if err := errors.Join(err, apool.Close(), pool.Close()); err != nil {
		return rung{}, err
	}
	l.host("sdrad.async_submit_ns", async)
	return domain, nil
}

// coreRungs drives core.System.Enter with a no-op and with a violating
// function (rewind + discard), as BenchmarkE6DomainRoundTrip and
// BenchmarkE2RewindAndDiscard do.
func (l *ladderRun) coreRungs() error {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := sys.InitDomain(1, core.DomainConfig{}); err != nil {
		return err
	}
	noop := func(*core.DomainCtx) error { return nil }
	enter, err := measureRung(ladderOps, func(int) error { return sys.Enter(1, noop) }, sys.Clock().Now)
	if err != nil {
		return err
	}
	l.host("core.enter_exit_ns", enter)
	l.values["core.enter_exit_virtual_ns"] = enter.virtualNS

	payload := make([]byte, l.opSize)
	violate := func(c *core.DomainCtx) error {
		c.MustStore(c.MustAlloc(len(payload)), payload)
		c.MustStore64(0xbad000, 1)
		return nil
	}
	rewind, err := measureRung(ladderOps/10, func(int) error {
		if _, ok := core.IsViolation(sys.Enter(1, violate)); !ok {
			return errors.New("ladder: violating function was not rewound")
		}
		return nil
	}, sys.Clock().Now)
	if err != nil {
		return err
	}
	l.host("core.rewind_ns", rewind)
	l.values["core.rewind_virtual_ns"] = rewind.virtualNS
	return nil
}

// memRungs drives alloc.Heap and mem.Memory on a bare address space.
func (l *ladderRun) memRungs() error {
	clock := vclock.New(vclock.DefaultCostModel())
	memory := mem.New(clock)
	const key = pku.Key(1)
	heap, err := alloc.New(memory, key, alloc.Config{})
	if err != nil {
		return err
	}
	allocFree, err := measureRung(ladderOps, func(int) error {
		p, err := heap.Alloc(l.opSize)
		if err != nil {
			return err
		}
		return heap.Free(p)
	}, clock.Now)
	if err != nil {
		return err
	}
	l.host("alloc.alloc_free_ns", allocFree)
	l.values["alloc.alloc_free_virtual_ns"] = allocFree.virtualNS
	for i := 0; i < 64; i++ { // live chunks for the sweep to walk
		if _, err := heap.Alloc(l.opSize); err != nil {
			return err
		}
	}
	sweep, err := measureRung(ladderOps/10, func(int) error { return heap.CheckIntegrity() }, nil)
	if err != nil {
		return err
	}
	l.host("alloc.check_integrity_ns", sweep)

	const pages = 16
	base, err := memory.Map(pages, mem.ProtRead|mem.ProtWrite, key)
	if err != nil {
		return err
	}
	pkru := pku.OnlyKeys(pku.DefaultKey, key)
	s0 := memory.Stats()
	storeLoad, err := measureRung(ladderOps*10, func(i int) error {
		addr := base + mem.Addr(i*64%(pages*mem.PageSize))
		if err := memory.Store64(pkru, addr, uint64(i)); err != nil {
			return err
		}
		_, err := memory.Load64(pkru, addr)
		return err
	}, clock.Now)
	if err != nil {
		return err
	}
	l.host("mem.store_load_ns", storeLoad)
	l.values["mem.store_load_virtual_ns"] = storeLoad.virtualNS
	s1 := memory.Stats()
	if lookups := float64(s1.TLBHits - s0.TLBHits + s1.TLBMisses - s0.TLBMisses); lookups > 0 {
		l.values["mem.tlb_hit_share"] = float64(s1.TLBHits-s0.TLBHits) / lookups
	}
	return nil
}

// frontRungs drives the layers in front of the stores: a submit.Queues
// hop (Submit, a no-op Exec, the Future resolved), the gateway's
// authenticate + admit + done, and httpd.Pool.Serve on the gateway
// workload's request.
func (l *ladderRun) frontRungs() error {
	ctx := context.Background()
	queues, err := submit.New(submit.Config{Workers: 1, MaxBatch: 32, Exec: func(_ int, batch []*submit.Task) {
		for _, t := range batch {
			t.Resolve(nil)
		}
	}})
	if err != nil {
		return err
	}
	hop, err := measureRung(ladderOps, func(int) error {
		fut, err := queues.Submit(0, ctx, nil)
		if err != nil {
			return err
		}
		return fut.Err()
	}, nil)
	queues.Close()
	if err != nil {
		return err
	}
	l.host("submit.hop_ns", hop)
	l.values["submit.allocs"] = hop.allocs

	gw, err := newGateway()
	if err != nil {
		return err
	}
	token := []byte(tenantTokens[0].token)
	rejected := 0
	admit, err := measureRung(ladderOps, func(int) error {
		tenant, err := gw.Authenticate(token)
		if err != nil {
			return err
		}
		ticket, err := gw.Admit(tenant)
		if err != nil {
			rejected++
			return nil
		}
		ticket.Done(false, false)
		return nil
	}, nil)
	if err != nil {
		return err
	}
	l.host("gateway.admit_done_ns", admit)
	l.values["gateway.allocs"] = admit.allocs
	l.values["gateway.rejected_share"] = float64(rejected) / float64(ladderOps*ladderRepeats)

	pool, err := newHTTPPool(specs[0].shards)
	if err != nil {
		return err
	}
	serve, err := measureRung(ladderOps, func(i int) error {
		if resp := pool.Serve(replayClient, l.http[i]); resp.Status != 200 {
			return fmt.Errorf("ladder: httpd answered %d", resp.Status)
		}
		return nil
	}, pool.TotalVirtualTime)
	if err != nil {
		return err
	}
	l.host("httpd.pool_serve_ns", serve)
	l.values["httpd.server_virtual_ns"] = serve.virtualNS
	return nil
}

// protocolRungs times the workload's own wire format, read and written
// the way its connection loop does: parse a request, render its
// response, flush.
func (l *ladderRun) protocolRungs() error {
	w := bufio.NewWriter(io.Discard)
	var read, write rung
	var err error
	if l.sp.http {
		one := bytes.NewReader(nil)
		if read, err = measureRung(ladderOps, func(i int) error {
			one.Reset(l.http[i])
			_, err := httpd.ReadRequestHead(bufio.NewReader(one))
			return err
		}, nil); err != nil {
			return err
		}
		resp := httpd.Response{Status: 200, Body: []byte(httpBody)}
		write, err = measureRung(ladderOps, func(int) error {
			httpd.WriteHTTPResponse(w, resp)
			return w.Flush()
		}, nil)
	} else {
		r := bufio.NewReader(bytes.NewReader(renderKV(l.marked)))
		if read, err = measureRung(ladderOps, func(int) error {
			_, err := kvstore.ReadCommand(r)
			return err
		}, nil); err != nil {
			return err
		}
		hit := kvstore.Response{OK: true, Value: l.preload[0].Value}
		write, err = measureRung(ladderOps, func(i int) error {
			if err := kvstore.WriteResponse(w, l.marked[i], hit); err != nil {
				return err
			}
			return w.Flush()
		}, nil)
	}
	if err != nil {
		return err
	}
	l.host("protocol.read_ns", read)
	l.host("protocol.write_ns", write)
	l.values["protocol.allocs"] = read.allocs + write.allocs
	return nil
}

// persistRungs times the durability engine on its own: one framed
// append per SET-sized record with and without fsync, and a snapshot of
// the pages a batch of such records would dirty.
func (l *ladderRun) persistRungs() (err error) {
	dir := filepath.Join(workRoot, "run", l.sp.name, "ladder-persist")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(dir)) }()
	record := [][]byte{make([]byte, l.setSize)}

	const syncAppends = 100 // each is an fsync
	synced, err := persist.OpenFile(filepath.Join(dir, "fsync"), persist.FileConfig{Fsync: true})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, synced.Close()) }()
	appendSync, err := measureRung(syncAppends, func(int) error { return synced.Append(record) }, nil)
	if err != nil {
		return err
	}
	l.host("persist.append_fsync_ns", appendSync)
	l.values["persist.wal_bytes_per_set"] = float64(synced.WALBytes()) / float64(syncAppends*ladderRepeats)

	page := make([]byte, mem.PageSize)
	snapshot, err := measureRung(10, func(i int) error {
		delta := make([]persist.SnapshotPage, 16)
		for p := range delta {
			delta[p] = persist.SnapshotPage{PN: uint64(i*16 + p), Data: page}
		}
		return synced.Snapshot([]byte("ladder"), delta)
	}, nil)
	if err != nil {
		return err
	}
	l.host("persist.snapshot_ns", snapshot)

	plain, err := persist.OpenFile(filepath.Join(dir, "nofsync"), persist.FileConfig{})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, plain.Close()) }()
	appendPlain, err := measureRung(2000, func(int) error { return plain.Append(record) }, nil)
	if err != nil {
		return err
	}
	l.host("persist.append_nofsync_ns", appendPlain)
	return nil
}

// ladder measures every rung for sp and returns the per-layer metrics
// the rungs define, with the repeats' range for each host timing.
func ladder(sp spec, seed uint64) (map[string]float64, map[string]spread, error) {
	l, err := newLadderRun(sp, seed)
	if err != nil {
		return nil, nil, err
	}
	router, pool, server, err := l.kvRungs()
	if err != nil {
		return nil, nil, err
	}
	domain, err := l.sdradRungs()
	if err != nil {
		return nil, nil, err
	}
	if err := errors.Join(l.coreRungs(), l.memRungs(), l.frontRungs(), l.protocolRungs(), l.persistRungs()); err != nil {
		return nil, nil, err
	}
	// Self times: a rung minus the rung below it on the same stream.
	l.values["cluster.router_self_ns"] = router.host.median - pool.host.median
	l.values["kvstore.pool_self_ns"] = pool.host.median - server.host.median
	l.values["kvstore.server_self_ns"] = server.host.median - domain.host.median
	return l.values, l.hosts, nil
}
