// Command sdrad-httpd is a resilient static web server over TCP,
// demonstrating per-request domain isolation for an NGINX-style workload.
//
// Requests are parsed inside SDRaD domains. Sending the "x-exploit"
// header triggers the injected parser bug: in sdrad mode the request gets
// a 400 and the server keeps running; in native mode the worker crashes
// and the service returns 503 for the modeled restart window.
//
// Requests are dispatched least-loaded across -workers parallel
// supervisors, each its own simulated machine with private parsing
// domains. Concurrent connections pipeline through bounded per-worker
// submission queues that coalesce requests into batched domain
// executions; -max-inflight bounds the admitted backlog (overload
// answers 503 immediately) and -max-inflight=0 disables the async layer
// entirely (one domain entry per request, as before).
//
// With -tenants FILE the gateway tier comes on: every request needs an
// Authorization: Bearer token from the file ("<tenant> <token>" per
// line), per-tenant token buckets and inflight quotas answer 429 with a
// deterministic Retry-After, repeat offenders are quarantined, and the
// /healthz and /drainz lifecycle endpoints come alive (SIGINT/SIGTERM
// also drains gracefully).
//
// With -elastic the per-worker parsing-domain sets autoscale between
// -min-workers and -max-workers: the set doubles when the submission
// queues back up and halves again after a sustained idle stretch
// (requires the batched path, -max-inflight > 0).
//
// Usage:
//
//	sdrad-httpd [-addr 127.0.0.1:8080] [-mode sdrad|native] [-workers N] [-req-timeout 0] [-max-inflight 1024] [-max-batch 32]
//	            [-tenants FILE] [-tenant-burst 8] [-tenant-refill-every 2] [-tenant-max-inflight 64] [-quarantine-after 3]
//	            [-elastic] [-min-workers 1] [-max-workers 8]
//
// Try it:
//
//	curl -i http://127.0.0.1:8080/
//	curl -i -H 'x-exploit: 1' http://127.0.0.1:8080/
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/httpd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	mode := flag.String("mode", "sdrad", "resilience mode: sdrad or native")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel supervisor shards (least-loaded dispatch)")
	reqTimeout := flag.Duration("req-timeout", 0, "per-request deadline, mapped to a deterministic virtual-cycle budget (0 = none)")
	maxInflight := flag.Int("max-inflight", 1024, "admission bound on queued+executing requests across all workers; overload answers 503 (0 = serial path, no batching)")
	maxBatch := flag.Int("max-batch", 32, "max pipelined requests coalesced into one batched domain execution")
	tenants := flag.String("tenants", "", "tenant table file (\"<tenant> <token>\" per line); enables the gateway tier")
	tenantBurst := flag.Int("tenant-burst", 8, "per-tenant token-bucket burst (with -tenants)")
	tenantRefill := flag.Uint64("tenant-refill-every", 2, "grant one admission token per N tenant arrivals (with -tenants)")
	tenantInflight := flag.Int("tenant-max-inflight", 64, "per-tenant inflight quota (with -tenants)")
	quarantineAfter := flag.Int("quarantine-after", 3, "detections in the sliding window that quarantine a tenant (with -tenants; -1 disables)")
	elastic := flag.Bool("elastic", false, "autoscale the per-worker parsing domains between -min-workers and -max-workers from queue backlog (needs the batched path, -max-inflight > 0)")
	minWorkers := flag.Int("min-workers", 1, "elastic lower bound on parsing domains per worker (with -elastic)")
	maxWorkers := flag.Int("max-workers", 8, "elastic upper bound on parsing domains per worker (with -elastic)")
	flag.Parse()

	var gcfg *gateway.Config
	if *tenants != "" {
		gcfg = &gateway.Config{
			Limits:          gateway.Limits{Burst: *tenantBurst, RefillEvery: *tenantRefill, MaxInflight: *tenantInflight},
			QuarantineAfter: *quarantineAfter,
		}
	}
	if err := run(*addr, *mode, *workers, *reqTimeout, *maxInflight, *maxBatch, *tenants, gcfg, *elastic, *minWorkers, *maxWorkers); err != nil {
		log.SetFlags(0)
		log.Fatalf("sdrad-httpd: %v", err)
	}
}

func run(addr, modeName string, workers int, reqTimeout time.Duration, maxInflight, maxBatch int, tenantsFile string, gcfg *gateway.Config, elastic bool, minWorkers, maxWorkers int) error {
	var mode httpd.Mode
	switch modeName {
	case "sdrad":
		mode = httpd.ModeSDRaD
	case "native":
		mode = httpd.ModeNative
	default:
		return fmt.Errorf("unknown mode %q", modeName)
	}

	pool, err := httpd.NewPool(core.DefaultConfig(), httpd.Config{Mode: mode}, workers)
	if err != nil {
		return err
	}
	pool.HandleFunc("/", []byte("<html><body><h1>sdrad-httpd</h1><p>resilient static server</p></body></html>\n"))
	pool.HandleFunc("/health", []byte("ok\n"))

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("sdrad-httpd listening on %s (mode=%s, workers=%d)", ln.Addr(), mode, pool.Workers())

	var srv *httpd.NetServer
	if maxInflight > 0 {
		srv, err = httpd.NewBatchedNetServerPool(pool, log.Default(), maxInflight, maxBatch)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := srv.Close(); cerr != nil {
				log.Printf("close server: %v", cerr)
			}
		}()
		log.Printf("async submission queues on (max-inflight=%d, max-batch=%d)", maxInflight, maxBatch)
	} else {
		srv = httpd.NewNetServerPool(pool, log.Default())
	}
	if elastic {
		if err := srv.EnableElastic(minWorkers, maxWorkers); err != nil {
			return err
		}
		log.Printf("elastic parsing domains on (min=%d, max=%d per worker)", minWorkers, maxWorkers)
	}
	if gcfg != nil {
		gw, gerr := gateway.LoadFile(tenantsFile, *gcfg)
		if gerr != nil {
			return gerr
		}
		srv.SetGateway(gw)
		log.Printf("gateway tier on (tenants=%s): bearer auth, per-tenant limits, /healthz, /drainz", tenantsFile)
	}
	srv.SetRequestTimeout(reqTimeout)

	return srv.ServeUntilSignal(ln)
}
