// Command sdrad-campaign runs the deterministic resilience-campaign
// engine: seeded scenario schedules that mix benign kvstore/httpd/FFI
// traffic with injected memory-safety faults across the Domain, Pool,
// and Bridge backends, recording a structured outcome trace.
//
// Usage:
//
//	sdrad-campaign [-seed N] [-scenarios a,b|all] [-workers N]
//	               [-requests N] [-batch K] [-gateway a,b|all] [-json] [-oracles] [-list] [-out FILE]
//
// The trace is a pure function of the flags: the same invocation
// produces byte-identical output, which is the property the campaign's
// differential oracles (-oracles) verify. -oracles walks the one oracle
// table, campaign.CheckAll, and prints one verdict per line in table
// order: same-seed determinism, worker-count invariance (1/4/8), benign
// cycle parity, batched==serial outcome/digest equality at batch sizes
// 8 and 32, crash recovery (a durable server killed mid-group-commit
// must recover exactly the acknowledged prefix), gateway isolation for
// each -gateway scenario (every benign tenant's outcomes and survivor
// digest must be byte-identical with and without the hostile
// co-tenant), and cluster==single-pool (an N-node sharded cluster fed
// the same seeded schedule through node crashes, rolling restarts and
// partitions must match one pool, at node counts 1/2/4). -batch K sets
// the wave size of the printed campaign and gateway runs
// (campaign.Config.Batch; coalesced domain entries on pool targets);
// the oracles always diff against a serial base and pick their own
// batch sizes, so their verdicts do not depend on -batch. -gateway runs
// the selected multi-tenant gateway scenarios (noisy neighbor, tenant
// attacks, mid-run drain, quarantine/probe). Exit status is 1 if any
// oracle fails.
//
// Everything runs against the real backends: campaign.Backends() for
// the Domain, Pool and Bridge executors, a durable kvstore server for
// recovery, and cluster routers for the cluster oracle. This command
// links the campaign engine; the serving binaries never do (the
// servedlinks lint).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/campaign/scenarios"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout *os.File) int {
	fs := flag.NewFlagSet("sdrad-campaign", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "campaign seed (same seed, same trace bytes)")
	list := fs.String("scenarios", "all", "comma-separated scenario names, or 'all'")
	workers := fs.Int("workers", 4, "isolated workers per scenario")
	requests := fs.Int("requests", 400, "requests per scenario")
	asJSON := fs.Bool("json", false, "emit the full JSON trace instead of the text summary")
	batch := fs.Int("batch", 0, "drive requests through the batched pipeline in waves of this size (0 = serial)")
	oracles := fs.Bool("oracles", false, "also run the differential oracles (same-seed, worker counts 1/4/8, benign parity, batched==serial, crash recovery, gateway isolation, cluster==single-pool)")
	gatewayList := fs.String("gateway", "", "comma-separated gateway scenario names, or 'all' (empty = skip the gateway tier)")
	showList := fs.Bool("list", false, "list shipped scenarios and exit")
	out := fs.String("out", "", "also write the JSON trace to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *showList {
		for _, sc := range scenarios.All() {
			kind := "benign"
			if !sc.Benign() {
				kind = fmt.Sprintf("attack 1/%d", sc.AttackEvery)
			}
			fmt.Fprintf(stdout, "%-28s %-6s %-6s %s\n", sc.Name, sc.Workload, sc.Target, kind)
		}
		for _, sc := range scenarios.Gateway() {
			hostile := 0
			for _, t := range sc.Tenants {
				if t.Hostile {
					hostile++
				}
			}
			fmt.Fprintf(stdout, "%-28s %-6s %-6s gateway: %d tenants (%d hostile)\n",
				sc.Name, "multi", sc.Target, len(sc.Tenants), hostile)
		}
		return 0
	}

	scs, err := scenarios.Select(*list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
		return 2
	}
	cfg := campaign.Config{Seed: *seed, Workers: *workers, Requests: *requests, Batch: *batch, Scenarios: scs}

	trace, err := campaign.Run(cfg, campaign.Backends())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
		return 1
	}
	blob, err := trace.JSON()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
			return 1
		}
	}
	if *asJSON {
		fmt.Fprintf(stdout, "%s\n", blob)
	} else {
		fmt.Fprint(stdout, trace.Summary())
	}

	// Gateway tier: run the selected multi-tenant scenarios at the
	// configured worker count and print their per-tenant summaries.
	var gscs []campaign.GatewayScenario
	if *gatewayList != "" {
		gscs, err = scenarios.SelectGateway(*gatewayList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
			return 2
		}
		for _, gsc := range gscs {
			gtr, err := campaign.RunGateway(gsc, cfg, campaign.Backends())
			if err != nil {
				fmt.Fprintf(os.Stderr, "sdrad-campaign: %v\n", err)
				return 1
			}
			fmt.Fprint(stdout, gtr.Summary())
		}
	}

	if !*oracles {
		return 0
	}
	results, err := campaign.CheckAll(cfg, campaign.Backends(), gscs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
		return 1
	}
	for _, r := range results {
		fmt.Fprintf(stdout, "%s\n", r)
	}
	if failed := len(campaign.Failures(results)); failed > 0 {
		fmt.Fprintf(stdout, "oracles: %d/%d FAILED\n", failed, len(results))
		return 1
	}
	fmt.Fprintf(stdout, "oracles: %d/%d pass\n", len(results), len(results))
	return 0
}
