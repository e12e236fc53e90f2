// Command sdrad-kvd is a resilient memcached-like server over TCP,
// demonstrating SDRaD containment end to end.
//
// It speaks a subset of the memcached text protocol (get/set/delete/
// stats/quit). Request handling runs inside per-connection SDRaD domains:
// a value whose payload starts with the attack marker "!!exploit" makes
// the parser trigger a heap overflow, which is contained — the connection
// gets SERVER_ERROR, the cache and every other connection keep working,
// and `stats` shows the contained_violations counter climbing. In
// -mode=native the same payload crashes the worker and the service drops
// requests for the modeled restart window.
//
// Request handling is sharded across -workers parallel supervisors, each
// its own simulated machine; keys map to shards by hash, so related
// requests serialize on one shard while the rest run concurrently.
// Concurrent connections pipeline through bounded per-shard submission
// queues that coalesce requests into batched domain executions;
// -max-inflight bounds the admitted backlog (overload answers
// SERVER_ERROR immediately) and -max-inflight=0 disables the async
// layer entirely (one domain entry per request, as before).
//
// With -data-dir the cache becomes durable: every committed batch is
// group-committed to a per-shard write-ahead log (one append — and with
// -fsync one fsync — per batch, not per request), periodic incremental
// snapshots bound replay time, and a restart recovers exactly the
// acknowledged writes. Leaving -data-dir unset keeps today's
// memory-only behavior, byte for byte.
//
// With -tenants FILE the gateway tier comes on: data commands need a
// prior "auth <token>" on the connection (tokens from the file,
// "<tenant> <token>" per line), per-tenant token buckets and inflight
// quotas answer SERVER_ERROR with a deterministic retry hint, repeat
// offenders are quarantined, and the "health" command reports shard +
// tenant state. SIGINT/SIGTERM drains gracefully: admission stops,
// queued requests finish, the WAL commits, a final snapshot lands, and
// no acknowledged write is lost.
//
// With -elastic the per-shard parser worker-domain sets autoscale
// between -min-workers and -max-workers: the set doubles when the
// submission queues back up and halves again after a sustained idle
// stretch (requires the batched path, -max-inflight > 0).
//
// Usage:
//
//	sdrad-kvd [-addr 127.0.0.1:11211] [-mode sdrad|native] [-capacity 67108864] [-workers N] [-req-timeout 0] [-max-inflight 1024] [-max-batch 32]
//	          [-data-dir DIR] [-fsync] [-snapshot-every N]
//	          [-tenants FILE] [-tenant-burst 8] [-tenant-refill-every 2] [-tenant-max-inflight 64] [-quarantine-after 3]
//	          [-elastic] [-min-workers 1] [-max-workers 8]
//
// Try it:
//
//	printf 'set k 0 0 5\r\nhello\r\nget k\r\nquit\r\n' | nc 127.0.0.1 11211
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
	"repro/internal/kvstore"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:11211", "listen address")
	mode := flag.String("mode", "sdrad", "resilience mode: sdrad or native")
	capacity := flag.Uint64("capacity", 64<<20, "cache capacity in bytes")
	workers := flag.Int("workers", runtime.NumCPU(), "parallel supervisor shards (key-hashed)")
	reqTimeout := flag.Duration("req-timeout", 0, "per-request deadline, mapped to a deterministic virtual-cycle budget (0 = none)")
	maxInflight := flag.Int("max-inflight", 1024, "admission bound on queued+executing requests across all shards; overload answers SERVER_ERROR (0 = serial path, no batching)")
	maxBatch := flag.Int("max-batch", 32, "max pipelined requests coalesced into one batched domain execution")
	dataDir := flag.String("data-dir", "", "durability root: per-shard WAL + snapshots under this directory (empty = memory-only)")
	fsync := flag.Bool("fsync", true, "fsync the WAL on every group commit (only with -data-dir)")
	snapshotEvery := flag.Int("snapshot-every", 64, "take an incremental snapshot every N committed batches per shard (only with -data-dir; 0 = WAL only)")
	tenants := flag.String("tenants", "", "tenant table file (\"<tenant> <token>\" per line); enables the gateway tier")
	tenantBurst := flag.Int("tenant-burst", 8, "per-tenant token-bucket burst (with -tenants)")
	tenantRefill := flag.Uint64("tenant-refill-every", 2, "grant one admission token per N tenant arrivals (with -tenants)")
	tenantInflight := flag.Int("tenant-max-inflight", 64, "per-tenant inflight quota (with -tenants)")
	quarantineAfter := flag.Int("quarantine-after", 3, "detections in the sliding window that quarantine a tenant (with -tenants; -1 disables)")
	elastic := flag.Bool("elastic", false, "autoscale the per-shard parser worker domains between -min-workers and -max-workers from queue backlog (needs the batched path, -max-inflight > 0)")
	minWorkers := flag.Int("min-workers", 1, "elastic lower bound on parser workers per shard (with -elastic)")
	maxWorkers := flag.Int("max-workers", 8, "elastic upper bound on parser workers per shard (with -elastic)")
	flag.Parse()

	var pcfg *kvstore.PersistConfig
	if *dataDir != "" {
		pcfg = &kvstore.PersistConfig{Dir: *dataDir, Fsync: *fsync, SnapshotEvery: *snapshotEvery}
	}
	var gcfg *gateway.Config
	if *tenants != "" {
		gcfg = &gateway.Config{
			Limits:          gateway.Limits{Burst: *tenantBurst, RefillEvery: *tenantRefill, MaxInflight: *tenantInflight},
			QuarantineAfter: *quarantineAfter,
		}
	}
	if err := run(*addr, *mode, *capacity, *workers, *reqTimeout, *maxInflight, *maxBatch, pcfg, *tenants, gcfg, *elastic, *minWorkers, *maxWorkers); err != nil {
		log.SetFlags(0)
		log.Fatalf("sdrad-kvd: %v", err)
	}
}

func run(addr, modeName string, capacity uint64, workers int, reqTimeout time.Duration, maxInflight, maxBatch int, pcfg *kvstore.PersistConfig, tenantsFile string, gcfg *gateway.Config, elastic bool, minWorkers, maxWorkers int) error {
	var mode kvstore.Mode
	switch modeName {
	case "sdrad":
		mode = kvstore.ModeSDRaD
	case "native":
		mode = kvstore.ModeNative
	default:
		return fmt.Errorf("unknown mode %q (want sdrad or native)", modeName)
	}

	pool, err := kvstore.NewPool(core.DefaultConfig(), kvstore.ServerConfig{Mode: mode, Persist: pcfg}, workers, capacity)
	if err != nil {
		return err
	}
	if pcfg != nil {
		defer func() {
			if cerr := pool.Close(); cerr != nil {
				log.Printf("close pool: %v", cerr)
			}
		}()
		log.Printf("durability on (data-dir=%s, fsync=%v, snapshot-every=%d)", pcfg.Dir, pcfg.Fsync, pcfg.SnapshotEvery)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	log.Printf("sdrad-kvd listening on %s (mode=%s, capacity=%d, workers=%d)",
		ln.Addr(), mode, pool.Capacity(), pool.Workers())
	if eff := pool.Capacity(); eff != capacity {
		log.Printf("note: effective capacity %d differs from requested %d (capacity divides across %d shards, each floored at the %d-byte max item size)",
			eff, capacity, pool.Workers(), kvstore.MaxValueSize)
	}

	var srv *kvstore.NetServer
	if maxInflight > 0 {
		srv, err = kvstore.NewBatchedNetServerPool(pool, log.Default(), maxInflight, maxBatch)
		if err != nil {
			return err
		}
		log.Printf("async submission queues on (max-inflight=%d, max-batch=%d)", maxInflight, maxBatch)
	} else {
		srv = kvstore.NewNetServerPool(pool, log.Default())
	}
	if elastic {
		if err := srv.EnableElastic(minWorkers, maxWorkers); err != nil {
			return err
		}
		log.Printf("elastic parser workers on (min=%d, max=%d per shard)", minWorkers, maxWorkers)
	}
	// NetServer.Close closes the pool too (idempotently), so it subsumes
	// the pool's own deferred close above.
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			log.Printf("close server: %v", cerr)
		}
	}()
	if gcfg != nil {
		gw, gerr := gateway.LoadFile(tenantsFile, *gcfg)
		if gerr != nil {
			return gerr
		}
		srv.SetGateway(gw)
		log.Printf("gateway tier on (tenants=%s): auth command, per-tenant limits, health command", tenantsFile)
	}
	srv.SetRequestTimeout(reqTimeout)

	// On SIGINT/SIGTERM: stop admission, flush queues (every ack made
	// durable by its batch's WAL commit), final snapshot, release stores.
	return srv.ServeUntilSignal(ln)
}
