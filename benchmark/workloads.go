package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/workload"
)

// conns is the closed-loop client count: one goroutine per connection,
// each waiting for its reply before it sends again. Two matches the
// sandbox's cores; every workload uses the same shape so their numbers
// compare.
const conns = 2

// spec is one benchmark workload: which binary it drives, with which
// flags, and the traffic the generator offers it. The why line is the
// reason the workload exists and is copied into BENCHMARK.json.
type spec struct {
	name string
	why  string

	// server is the binary under cmd/. shards is its -workers (for
	// sdrad-cluster, its -nodes, with replicas extra copies per slot);
	// durable and tenants ask for a per-run data directory or tenants
	// file. The in-process replay builds its stack from the same fields.
	server   string
	shards   int
	replicas int
	durable  bool
	tenants  bool
	// serverProcs pins the server's GOMAXPROCS (0 leaves the default).
	serverProcs int

	// http selects the one-request-per-connection HTTP client; the kv
	// fields below are unused then.
	http bool
	// window is how many requests a connection writes before it reads
	// the replies (1 = strict request/reply).
	window int
	// keys is the key-space size, split evenly between the connections.
	keys      int
	getShare  float64
	valueSize int
	// attackEvery makes every Nth request an exploit SET (0 = never).
	attackEvery int
	// replayN is how many of connection 0's requests the in-process
	// replay serves.
	replayN int
}

// tenantTokens is the tenants file of the http-gateway workload, one
// tenant per connection.
var tenantTokens = [conns]struct{ tenant, token string }{
	{"alpha", "tok-alpha-5a1d"},
	{"beta", "tok-beta-77c2"},
}

var specs = []spec{
	{
		name:   "kv-closed",
		why:    "strict request/reply over TCP: the socket round trip and two submit-queue hops dominate, so frontend/queue changes show and mem/alloc/core changes must not",
		server: "sdrad-kvd", shards: 2,
		window: 1, keys: 20000, getShare: 0.9, valueSize: 128, replayN: 200000,
	},
	{
		name:   "kv-pipelined",
		why:    "windows of 32 requests against a one-P server: server CPU is saturated, so per-request server work (parse, flush, Enter/Exit, alloc) sets throughput",
		server: "sdrad-kvd", shards: 2, serverProcs: 1,
		window: 32, keys: 20000, getShare: 0.9, valueSize: 128, replayN: 200000,
	},
	{
		name:   "kv-attack",
		why:    "kv-pipelined with every 4th request an exploit SET: the only workload where rewind, integrity sweep and discard do real work; kv-pipelined is its control",
		server: "sdrad-kvd", shards: 2, serverProcs: 1,
		window: 32, keys: 20000, getShare: 0.9, valueSize: 128, attackEvery: 4, replayN: 200000,
	},
	{
		name:   "kv-durable",
		why:    "half SETs of 1 KiB, each committed to the write-ahead log: the kvstore layer used for writes, not reads; acknowledged writes are re-read after a restart",
		server: "sdrad-kvd", shards: 2, durable: true,
		window: 1, keys: 4000, getShare: 0.5, valueSize: 1024, replayN: 50000,
	},
	{
		name:   "http-gateway",
		why:    "one authenticated GET per TCP connection through the second frontend: accept/close per request plus gateway auth and admission",
		server: "sdrad-httpd", shards: 2, tenants: true,
		http: true, replayN: 100000,
	},
	{
		name:   "cluster-routed",
		why:    "router placement, synchronous replica apply and wire encode/decode on every request, with no submission queues: submit changes must not move it",
		server: "sdrad-cluster", shards: 3, replicas: 1,
		window: 1, keys: 20000, getShare: 0.7, valueSize: 128, replayN: 200000,
	},
}

// tenantRefillEvery is the gateway workload's -tenant-refill-every,
// shared by the server flags and the in-process replay: one token per
// arrival, so that a closed loop is never throttled.
const tenantRefillEvery = 1

// serverArgs returns the server's flags besides -addr; dataDir and
// tenantsFile are the per-run paths of the workloads that need them.
func (s spec) serverArgs(dataDir, tenantsFile string) []string {
	n := strconv.Itoa(s.shards)
	if s.server == "sdrad-cluster" {
		return []string{"-nodes", n, "-replicas", strconv.Itoa(s.replicas)}
	}
	args := []string{"-workers", n}
	if s.durable {
		// Log only, and no fsync: both fsync and the snapshot's two
		// fsyncs are the sandbox's virtual disk, whose latency swings by
		// a quarter from run to run. The ladder prices them on their
		// own (persist.*); this workload keeps to what the code does.
		args = append(args, "-data-dir", dataDir, "-fsync=false", "-snapshot-every", "0")
	}
	if s.tenants {
		args = append(args, "-tenants", tenantsFile, "-tenant-refill-every", strconv.Itoa(tenantRefillEvery))
	}
	return args
}

// tenantsTable renders the tenants file.
func tenantsTable() string {
	var b strings.Builder
	for _, t := range tenantTokens {
		fmt.Fprintf(&b, "%s %s\n", t.tenant, t.token)
	}
	return b.String()
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// kvShape returns the kv traffic shape the layer ladder uses: the
// workload's own, or kv-closed's for the HTTP workload, whose kv rungs
// would otherwise have nothing to size from.
func (s spec) kvShape() spec {
	if s.http {
		return specs[0]
	}
	return s
}

// kvStream generates one connection's request stream. Connection c owns
// the keys whose index ≡ c (mod conns), so it can check every GET
// against the value it last had acknowledged without hearing from the
// other connection.
type kvStream struct {
	rng  *workload.RNG
	zipf *workload.Zipf
	sp   spec
	conn int
	n    int
}

func newKVStream(sp spec, seed uint64, conn int) (*kvStream, error) {
	// splitmix64 decorrelates adjacent seeds, so seed*conns+conn gives
	// each (seed, connection) pair its own stream.
	rng := workload.NewRNG(seed*conns + uint64(conn))
	z, err := workload.NewZipf(rng, sp.keys/conns, 0.99)
	if err != nil {
		return nil, err
	}
	return &kvStream{rng: rng, zipf: z, sp: sp, conn: conn}, nil
}

// ownedKey returns the i-th key owned by conn.
func ownedKey(conn, i int) string { return workload.Key(i*conns + conn) }

func (s *kvStream) next() workload.Request {
	s.n++
	req := workload.Request{Key: ownedKey(s.conn, s.zipf.Next())}
	attack := s.sp.attackEvery > 0 && s.n%s.sp.attackEvery == 0
	if !attack && s.rng.Float64() < s.sp.getShare {
		req.Op = workload.OpGet
		return req
	}
	req.Op = workload.OpSet
	req.Value = make([]byte, s.sp.valueSize)
	s.rng.Bytes(req.Value)
	if attack {
		// Over the wire the value prefix is what makes a SET malicious
		// (the servers set Request.Malicious from it).
		copy(req.Value, kvstore.AttackMarker)
	}
	return req
}

// preloadValue is the value connection conn stores under its i-th key
// before the run, so that GETs hit from the first request.
func preloadValue(sp spec, seed uint64, conn, i int) []byte {
	v := make([]byte, sp.valueSize)
	workload.NewRNG(seed ^ uint64(i*conns+conn+1)<<20).Bytes(v)
	return v
}

// preloadRequests are the SETs that store connection conn's keys.
func preloadRequests(sp spec, seed uint64, conn int) []workload.Request {
	reqs := make([]workload.Request, sp.keys/conns)
	for i := range reqs {
		reqs[i] = workload.Request{Op: workload.OpSet, Key: ownedKey(conn, i), Value: preloadValue(sp, seed, conn, i)}
	}
	return reqs
}

// preloadAll are the SETs that store every connection's keys: the state
// a measured window, a replay or a ladder rung starts from.
func preloadAll(sp spec, seed uint64) []workload.Request {
	var reqs []workload.Request
	for c := 0; c < conns; c++ {
		reqs = append(reqs, preloadRequests(sp, seed, c)...)
	}
	return reqs
}

// httpStream generates one connection's HTTP requests: GET / with the
// connection's tenant token and a request id drawn from the seed, so
// the head the server parses differs from request to request.
type httpStream struct {
	rng  *workload.RNG
	conn int
}

func newHTTPStream(seed uint64, conn int) *httpStream {
	return &httpStream{rng: workload.NewRNG(seed*conns + uint64(conn)), conn: conn}
}

func (s *httpStream) next() []byte {
	return fmt.Appendf(nil, "GET / HTTP/1.1\r\nhost: bench\r\nauthorization: Bearer %s\r\nx-request-id: %x\r\n\r\n",
		tenantTokens[s.conn].token, s.rng.Uint64())
}

// httpBody is what sdrad-httpd serves at "/".
const httpBody = "<html><body><h1>sdrad-httpd</h1><p>resilient static server</p></body></html>\n"
