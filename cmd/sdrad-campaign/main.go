// Command sdrad-campaign runs the deterministic resilience-campaign
// engine: seeded scenario schedules that mix benign kvstore/httpd/FFI
// traffic with injected memory-safety faults across the Domain, Pool,
// and Bridge backends, recording a structured outcome trace.
//
// Usage:
//
//	sdrad-campaign [-seed N] [-scenarios a,b|all] [-workers N]
//	               [-requests N] [-batch K] [-gateway a,b|all] [-json] [-oracles] [-cluster] [-list] [-out FILE]
//
// The trace is a pure function of the flags: the same invocation
// produces byte-identical output, which is the property the campaign's
// differential oracles (-oracles) verify — same-seed determinism,
// worker-count invariance (1/4/8), benign cycle parity, batched==serial
// outcome/digest equality at batch sizes 8 and 32, resize invisibility
// on pool scenarios (workers 1→4→8→2 mid-run), and crash recovery (a
// durable server killed mid-group-commit must recover exactly the
// acknowledged prefix, across worker counts 1/4/8 and batches 8/32).
// -batch K sets the wave size of the printed campaign and gateway runs
// (campaign.Config.Batch; coalesced domain entries on pool targets).
// The oracles always diff against a serial base and pick their own
// batch sizes, so their verdicts do not depend on -batch. -gateway runs
// the selected multi-tenant gateway scenarios (noisy neighbor, tenant
// attacks, mid-run drain, quarantine/probe) and, with -oracles, their
// isolation oracle: every benign tenant's outcomes and survivor digest
// must be byte-identical with and without the hostile co-tenant, across
// worker counts 1/4/8 serially and batch sizes 8/32. -cluster (with
// -oracles) adds the cluster==single-pool differential oracle: an
// N-node sharded cluster fed the same seeded schedule — through node
// crashes, rolling restarts, and partitions — must produce the same
// per-request outcomes and survivor digest as one pool, at node counts
// 1/2/4, serial and batched 8/32. Exit status is 1 if any oracle fails.
package main

import (
	"flag"
	"fmt"
	"os"

	sdrad "repro"
	"repro/internal/campaign"
	"repro/internal/campaign/scenarios"
	"repro/internal/cluster"
	"repro/internal/kvstore"
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
	oracles := fs.Bool("oracles", false, "also run the differential oracles (same-seed, worker counts 1/4/8, benign parity, batched==serial, crash recovery, gateway isolation)")
	clusterOracle := fs.Bool("cluster", false, "with -oracles, also run the cluster==single-pool differential oracle (node counts 1/2/4, serial and batched 8/32, including node-crash, rolling-restart, and partition scenarios)")
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

	trace, err := sdrad.RunCampaign(cfg)
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
			gtr, err := sdrad.RunGatewayCampaign(gsc, cfg)
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
	results, err := sdrad.CheckCampaignOracles(cfg, 1, 4, 8)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
		return 1
	}
	// Crash-recovery oracle: seeded mid-commit kills over a durable
	// server, recovered state diffed against the acknowledged prefix,
	// across worker counts 1/4/8 and batch sizes 8/32.
	recDir, err := os.MkdirTemp("", "sdrad-recovery-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
		return 1
	}
	defer func() {
		if rerr := os.RemoveAll(recDir); rerr != nil {
			fmt.Fprintf(os.Stderr, "sdrad-campaign: cleanup: %v\n", rerr)
		}
	}()
	recResults, err := campaign.CheckRecovery(
		&kvstore.RecoveryHarness{Dir: recDir}, *seed, *requests, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
		return 1
	}
	results = append(results, recResults...)
	// Gateway isolation oracle: benign tenants' outcomes and survivor
	// digests must be byte-identical with and without the hostile
	// co-tenant, serially at worker counts 1/4/8 and batched at 8/32.
	for _, gsc := range gscs {
		isoResults, err := sdrad.CheckGatewayIsolation(gsc, cfg, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
			return 1
		}
		results = append(results, isoResults...)
	}
	// Cluster differential oracle: an N-node cluster and a single pool
	// fed the same seeded schedule must produce identical per-request
	// outcomes and survivor digests — across node counts 1/2/4, serial
	// and batched 8/32, through node-crash, rolling-restart, and
	// partition membership schedules.
	if *clusterOracle {
		clResults, err := campaign.CheckCluster(&cluster.Harness{}, *seed, *requests, nil, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sdrad-campaign: oracles: %v\n", err)
			return 1
		}
		results = append(results, clResults...)
	}
	failed := 0
	for _, r := range results {
		fmt.Fprintf(stdout, "%s\n", r)
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "oracles: %d/%d FAILED\n", failed, len(results))
		return 1
	}
	fmt.Fprintf(stdout, "oracles: %d/%d pass\n", len(results), len(results))
	return 0
}
