// Command benchmark is the repository's one benchmark: it builds the
// three server binaries, drives each named workload against the real
// binary over loopback TCP from a closed-loop load generator, replays
// the same request stream in-process for the two host-independent
// numbers (virtual nanoseconds and allocations per request), prices
// every layer under the socket with a ladder of public entry points,
// checks every reply, and prints every metric by name with its unit.
//
//	go run ./benchmark --workload kv-closed --seed 1 --seconds 12 --trace 0
//	go run ./benchmark -seed 1 -out results.json   # every workload, both modes
//	go run ./benchmark -compare a.json b.json
//
// With --trace 0 a run reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics from a
// traced replay and the ladder. The last line of standard output is the
// run's result as one JSON object. README.md has the glossary.
//
//lint:allow wallclock benchmark harness: host-side wall timings are the product here, not simulated state
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Min and Max are the fastest and slowest repeat of a host timing
	// reported as a median; both zero for anything else.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
}

// result is one run of one workload in one mode.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload runs sp once and returns its metrics: the end-to-end set
// (trace off) or the per-layer set (trace on).
func runWorkload(bin string, sp spec, seed uint64, seconds int, trace bool) (*result, error) {
	in, err := newReplayInput(sp, seed)
	if err != nil {
		return nil, err
	}
	if trace {
		return runPerLayer(bin, sp, seed, seconds, in)
	}
	return runEndToEnd(bin, sp, seed, seconds, in)
}

// runEndToEnd measures sp over the socket for seconds, then replays its
// stream in-process for the two exact metrics. Nothing is traced.
func runEndToEnd(bin string, sp spec, seed uint64, seconds int, in *replayInput) (*result, error) {
	sock, err := socketRun(bin, sp, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	rep, err := runReplay(sp, in, nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: sock.attempted + int64(rep.requests),
		Failed:    sock.failed + int64(rep.failed),
	}
	values := map[string]float64{
		"setup_s":               slices.Min(sock.setups),
		"throughput_rps":        sock.throughput,
		"latency_p50_us":        sock.p50us,
		"latency_p99_us":        sock.p99us,
		"server_cpu_us_per_req": sock.cpuPerReplyUs,
		"virtual_ns_per_req":    rep.virtualNS,
		"allocs_per_req":        rep.allocs,
	}
	fmt.Printf("%-28s %12.6f share (%d of %d)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("%-28s %12.1f us (%d samples)\n", "latency_"+sock.tail+"_us", sock.tailUs, sock.samples)
	return res.fill(endToEnd, values, nil), nil
}

// runPerLayer reports the per-layer metrics: a short socket run for
// what only a live process shows (CPU, memory, wire counters), an
// untraced and a traced replay, and the ladder.
func runPerLayer(bin string, sp spec, seed uint64, seconds int, in *replayInput) (*result, error) {
	sock, err := socketRun(bin, sp, seed, max(seconds/3, 2), false)
	if err != nil {
		return nil, err
	}
	rep, err := runReplay(sp, in, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer(rep.requests * numSpanNames)
	traced, err := runReplay(sp, in, tr)
	if err != nil {
		return nil, err
	}
	tracePath := filepath.Join(workRoot, "run", sp.name, "trace.json")
	if err := writeTrace(tracePath, sp.name, seed, tr, traced.requests); err != nil {
		return nil, err
	}
	fmt.Printf("trace written to %s\n", tracePath)
	values, hosts, err := ladder(sp, seed)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: sock.attempted + int64(rep.requests+traced.requests),
		Failed:    sock.failed + int64(rep.failed+traced.failed),
	}

	values["client.cpu_us_per_req"] = float64(sock.clientCPU.Microseconds()) / float64(max(sock.verified, 1))
	values["client.samples"] = float64(sock.samples)
	values["netserver.cpu_util"] = sock.serverCPU.Seconds() / sock.wall.Seconds()
	values["netserver.rss_mb"] = sock.rssMB
	values["netserver.socket_share"] = 1 - rep.hostNS.median/1e3/sock.cpuPerReplyUs
	values["replay.host_ns_per_req"] = rep.hostNS.median
	hosts["replay.host_ns_per_req"] = rep.hostNS
	values["replay.host_ns_spread"] = rep.hostNS.rel()
	values["trace.overhead_pct"] = (traced.hostNS.median - rep.hostNS.median) / rep.hostNS.median * 100
	for i, v := range selfTimes(tr.spans, traced.requests) {
		values["trace."+strings.ReplaceAll(spanNames[i], ".", "_")+"_self_ns"] = v
	}
	if gets := sock.stats["get_hits"] + sock.stats["get_misses"]; gets > 0 {
		values["kvstore.get_hit_share"] = float64(sock.stats["get_hits"]) / float64(gets)
	}
	values["kvstore.contained"] = float64(sock.stats["contained_violations"])
	if n := sock.stats["cmd_total"]; n > 0 {
		values["cluster.virtual_ns_per_req"] = float64(sock.stats["cluster_virtual_ns"]) / float64(n)
	}

	// The ladder's prediction of the replay: the wire format plus the
	// workload's top handling rung; the residual is what the replay
	// adds to those.
	sum := values["protocol.read_ns"] + values["protocol.write_ns"]
	switch {
	case sp.http:
		sum += values["gateway.admit_done_ns"] + values["httpd.pool_serve_ns"]
	case sp.server == "sdrad-cluster":
		sum += values["cluster.router_handle_ns"]
	default:
		sum += values["kvstore.pool_handle_ns"]
		if sp.durable {
			sum += (1 - sp.getShare) * values["persist.append_nofsync_ns"] // every SET is one commit
		}
	}
	values["ladder.sum_ns"] = sum
	values["ladder.residual_pct"] = (rep.hostNS.median - sum) / rep.hostNS.median * 100
	return res.fill(perLayer, values, hosts), nil
}

// fill copies the metrics defs names out of values, in table order, and
// prints each; a value the run did not produce for a layer that is not
// on the workload's path is reported as 0.
func (res *result) fill(defs []metricDef, values map[string]float64, hosts map[string]spread) *result {
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		m := metric{Value: values[d.name], Unit: d.unit}
		if s, ok := hosts[d.name]; ok {
			m.Min, m.Max = s.min, s.max
			fmt.Printf("%-28s %12.4f %s (min %.4f, max %.4f)\n", d.name, m.Value, d.unit, m.Min, m.Max)
		} else {
			fmt.Printf("%-28s %12.4f %s\n", d.name, m.Value, d.unit)
		}
		res.Metrics[d.name] = m
	}
	return res
}

// pinnedCPU is the CPU the run is confined to, for the results file.
var pinnedCPU = "none"

// report is the results file of a whole-suite run.
type report struct {
	Meta      map[string]string             `json:"meta"`
	Workloads map[string]map[string]*result `json:"workloads"` // name -> "end_to_end" | "per_layer"
}

func meta(seed uint64, seconds int) map[string]string {
	m := map[string]string{
		"seed":                 fmt.Sprint(seed),
		"run_seconds":          fmt.Sprint(seconds),
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs_generator": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"pinned_cpu":           pinnedCPU,
		"go_version":           runtime.Version(),
		"commit":               "unknown",
		"kernel":               "unknown",
	}
	for _, sp := range specs {
		procs := "default"
		if sp.serverProcs > 0 {
			procs = fmt.Sprint(sp.serverProcs)
		}
		m["gomaxprocs_server."+sp.name] = procs
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m["commit"] = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m["kernel"] = strings.TrimSpace(string(b))
	}
	return m
}

// runAll runs every workload in both modes and writes the results file.
func runAll(bin string, seed uint64, seconds int, outPath string) error {
	rep := report{Meta: meta(seed, seconds), Workloads: make(map[string]map[string]*result)}
	failed := false
	for _, sp := range specs {
		rep.Workloads[sp.name] = make(map[string]*result)
		for _, mode := range []struct {
			key   string
			trace bool
		}{{"end_to_end", false}, {"per_layer", true}} {
			fmt.Printf("\n== %s (%s) ==\n", sp.name, mode.key)
			res, err := runWorkload(bin, sp, seed, seconds, mode.trace)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			rep.Workloads[sp.name][mode.key] = res
			failed = failed || !res.Correct
		}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresults written to %s\n", outPath)
	if failed {
		return errors.New("some replies were wrong: failed_share > 0")
	}
	return nil
}

func run() error {
	workloadName := flag.String("workload", "", "run one workload and print its result as the last line (default: every workload, both modes)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same request streams")
	seconds := flag.Int("seconds", 12, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay and the ladder")
	outPath := flag.String("out", filepath.Join(workRoot, "results.json"), "results file of a whole-suite run")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		return errors.New("want --seconds >= 1, --trace 0 or 1, and no positional arguments")
	}
	runtime.GOMAXPROCS(1)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killChildren()
		os.Exit(130)
	}()
	defer killChildren()

	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return err
	}
	bin, err := buildServers()
	if err != nil {
		return err
	}
	// One P for the generator (above), and — once the build has had
	// every core — one CPU for generator and servers together: both
	// remove run-to-run drift that has nothing to do with the code
	// under test (see pinToOneCPU).
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: running unpinned, expect noisier numbers: %v\n", err)
	} else {
		pinnedCPU = strconv.Itoa(cpu)
	}
	if *workloadName == "" {
		return runAll(bin, *seed, *seconds, *outPath)
	}
	sp, err := findSpec(*workloadName)
	if err != nil {
		return err
	}
	res, err := runWorkload(bin, sp, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	// The result line carries value and unit only.
	//lint:detorder rewrites each entry in place; json.Marshal sorts the keys
	for name, m := range res.Metrics {
		res.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	err := func() (err error) {
		// A panic anywhere on the main goroutine must not leave a
		// server running: kill the children, then let it propagate.
		defer func() {
			if p := recover(); p != nil {
				killChildren()
				panic(p)
			}
		}()
		return run()
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}
