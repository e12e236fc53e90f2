// Command sdrad-cluster fronts a fleet of in-process sdrad-kvd shard
// nodes with a cluster router: keys place onto nodes by rendezvous
// hashing over 64 virtual slots, acked mutations replicate
// synchronously to each slot's -replicas extra holders, and node health
// is tracked by arrival-counted leases (-lease-cycles) — the same
// deterministic membership clock the differential oracle replays.
//
// It speaks the same memcached text subset as sdrad-kvd
// (get/set/delete/stats/scan/quit) plus two cluster extensions on the
// health command: per-node lease state and placement epoch.
//
// Usage:
//
//	sdrad-cluster [-addr 127.0.0.1:11311] [-nodes 3] [-replicas 1]
//	              [-lease-cycles 8] [-shards-per-node 1]
//	              [-capacity 67108864] [-read-replicas]
//
// Try it:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nhealth\r\nquit\r\n' | nc 127.0.0.1 11311
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/lifecycle"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11311", "listen address")
	nodes := flag.Int("nodes", 3, "shard node count (node ids 0..N-1)")
	replicas := flag.Int("replicas", 1, "extra synchronous copies per slot beyond the primary (clamped to nodes-1)")
	leaseCycles := flag.Uint64("lease-cycles", cluster.DefaultLeaseCycles, "membership lease in arrival-counted cycles (health degrades past 1x, dies past 2x)")
	shardsPerNode := flag.Int("shards-per-node", 1, "local kvstore shards inside each node")
	capacity := flag.Uint64("capacity", 64<<20, "per-node cache capacity in bytes")
	readReplicas := flag.Bool("read-replicas", false, "round-robin GETs across a slot's holders instead of pinning to the primary")
	flag.Parse()

	if err := run(*addr, cluster.RouterConfig{
		Nodes:         *nodes,
		Replicas:      *replicas,
		LeaseCycles:   *leaseCycles,
		Sys:           core.DefaultConfig(),
		Server:        kvstore.ServerConfig{Mode: kvstore.ModeSDRaD, InterArrival: time.Microsecond},
		ShardsPerNode: *shardsPerNode,
		Capacity:      *capacity,
		ReadReplicas:  *readReplicas,
	}); err != nil {
		log.SetFlags(0)
		log.Fatalf("sdrad-cluster: %v", err)
	}
}

func run(addr string, cfg cluster.RouterConfig) error {
	router, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}
	srv := newFrontend(router, log.Default())
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			log.Printf("close router: %v", cerr)
		}
	}()
	if err := srv.Serving(); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("sdrad-cluster listening on %s (nodes=%d, replicas=%d, lease-cycles=%d, read-replicas=%v)",
		ln.Addr(), cfg.Nodes, cfg.Replicas, cfg.LeaseCycles, cfg.ReadReplicas)
	return srv.ServeUntilSignal(ln)
}

// frontend is the shared serving frontend at the kv protocol's types.
type frontend = serve.Frontend[workload.Request, kvstore.Response]

// newFrontend returns the Initializing serving frontend over router. The
// router places each request itself, so the frontend is serial (no
// submission queues) and has nothing to resize.
func newFrontend(router *cluster.Router, logger *log.Logger) *frontend {
	var f *frontend
	f = serve.New(serve.Backend[workload.Request, kvstore.Response]{
		Name:      "cluster",
		ServeConn: func(id int, conn io.ReadWriter) { serveConn(f, router, id, conn) },
		Handle:    router.HandleContext,
		Shards:    len(router.NodeIDs()),
		Drain:     router.Drain,
		Close:     router.Close,
	}, logger)
	return f
}

// serveConn runs the shared kv command loop for one connection against
// the cluster router, with the cluster's own stats, health and error
// rendering.
func serveConn(f *frontend, router *cluster.Router, id int, conn io.ReadWriter) {
	kvstore.ServeCommands(id, conn, f.Logf, func(w io.Writer, cmd kvstore.Command) error {
		switch {
		case cmd.Stats:
			return writeClusterStats(w, router)
		case cmd.Health:
			return writeClusterHealth(w, router)
		case cmd.Auth:
			_, err := io.WriteString(w, "CLIENT_ERROR auth not supported by the cluster router\r\n")
			return err
		case cmd.Scan:
			res, err := router.Scan(cmd.ScanPrefix, cmd.ScanCursor, cmd.ScanLimit)
			if err != nil {
				return writeServerError(w, err)
			}
			return kvstore.WriteScanResponse(w, res)
		}
		resp := f.Do(id, cmd.Req)
		if resp.Err != nil {
			return writeServerError(w, resp.Err)
		}
		return kvstore.WriteResponse(w, cmd.Req, resp)
	})
}

// writeServerError renders an error line; unavailable slots carry the
// router's deterministic retry hint so clients can back off precisely.
func writeServerError(w io.Writer, err error) error {
	var ue *cluster.UnavailableError
	if errors.As(err, &ue) {
		_, werr := fmt.Fprintf(w, "SERVER_ERROR %s (retry-cycles %d)\r\n", ue, ue.RetryCycles)
		return werr
	}
	_, werr := fmt.Fprintf(w, "SERVER_ERROR %s\r\n", err)
	return werr
}

// writeClusterStats renders the stats command: aggregate request
// accounting plus the cluster counters.
func writeClusterStats(w io.Writer, router *cluster.Router) error {
	st := router.Stats()
	rows := []struct {
		k string
		v uint64
	}{
		{"cmd_total", st.Requests},
		{"contained_violations", st.Violations},
		{"crashes", st.Crashes},
		{"dropped", st.Dropped},
		{"preempted", st.Preempted},
		{"cluster_nodes", uint64(len(router.NodeIDs()))},
		{"cluster_epoch", router.Epoch()},
		{"cluster_dispatched", router.Dispatched()},
		{"cluster_handoffs", router.Handoffs()},
		{"cluster_unavailable", router.Unavailable()},
		{"cluster_virtual_ns", uint64(router.VirtualTime())},
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "STAT %s %d\r\n", row.k, row.v); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}

// writeClusterHealth renders the health command: one STAT line per node
// with its lease-derived state and age, plus the placement epoch.
func writeClusterHealth(w io.Writer, router *cluster.Router) error {
	if _, err := fmt.Fprintf(w, "STAT cluster_epoch %d\r\n", router.Epoch()); err != nil {
		return err
	}
	for _, m := range router.Members() {
		state := "healthy"
		switch m.State {
		case lifecycle.StateDegraded:
			state = "degraded"
		case lifecycle.StateStopped:
			state = "dead"
		}
		if _, err := fmt.Fprintf(w, "STAT node%d %s age=%d\r\n", m.ID, state, m.Age); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "END\r\n")
	return err
}
