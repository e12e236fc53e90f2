// Memcached scenario: the paper's primary use case, end to end.
//
// A memcached-like server holds a warm cache. Eight benign clients issue
// a zipf-skewed GET/SET mix while a malicious client periodically sends
// exploit payloads. The demo runs the same workload twice — native
// (crash + process restart) and SDRaD (worker domains with secure
// rewind) — and prints what the benign clients experienced.
//
//	go run ./examples/memcached
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	sdrad "repro"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/workload"
)

const (
	requests    = 30_000
	attackEvery = 500
	clients     = 8
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("memcached example: %v", err)
	}
}

func run() error {
	fmt.Printf("workload: %d requests, %d clients, 1 exploit per %d requests\n\n",
		requests, clients, attackEvery)
	table := metrics.NewTable("benign-client experience",
		"mode", "benign failures", "failure rate", "p99 latency", "attacks contained", "process crashes")
	for _, mode := range []kvstore.Mode{kvstore.ModeNative, kvstore.ModeSDRaD} {
		row, err := drive(mode)
		if err != nil {
			return err
		}
		table.AddRow(row...)
	}
	fmt.Println(table.String())
	fmt.Println("The cache survives every attack in sdrad mode: a malicious request")
	fmt.Println("rewinds only its connection's domain, in microseconds.")
	return nil
}

func drive(mode kvstore.Mode) ([]any, error) {
	sup := sdrad.New()
	cache, err := kvstore.NewCache(sup.System(), 1, 64<<20)
	if err != nil {
		return nil, err
	}
	if _, err := kvstore.Warmup(cache, 16<<20, 4096); err != nil {
		return nil, err
	}
	srv, err := kvstore.NewServer(sup.System(), cache, kvstore.ServerConfig{Mode: mode})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewKV(workload.KVConfig{Seed: 42, Keys: 4000})
	if err != nil {
		return nil, err
	}
	mal := &workload.MaliciousEvery{G: gen, N: attackEvery}

	var hist metrics.Histogram
	benign, failures := 0, 0
	for i := 0; i < requests; i++ {
		req := mal.Next()
		// Per-request deadline: HandleContext maps it to a virtual-cycle
		// budget bounding the request's in-domain run.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		resp := srv.HandleContext(ctx, i%clients, req)
		cancel()
		if req.Malicious {
			continue
		}
		benign++
		if resp.Err != nil {
			failures++
			continue
		}
		hist.ObserveDuration(resp.Latency)
	}
	st := srv.Stats()
	return []any{
		mode.String(),
		fmt.Sprintf("%d / %d", failures, benign),
		fmt.Sprintf("%.2f%%", float64(failures)/float64(benign)*100),
		metrics.FormatDuration(time.Duration(hist.P99())),
		st.Violations,
		st.Crashes,
	}, nil
}
