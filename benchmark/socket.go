package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// warmup is the unmeasured run-in before the measured window: long
// enough for the server's queues, the Go scheduler and TCP's windows to
// settle on a preloaded store.
const warmup = time.Second

// socketResult is what one run against a real server process measured.
type socketResult struct {
	setups    []float64 // seconds, one per set-up
	attempted int64     // with kv-durable's re-read after the restart
	failed    int64
	verified  int64 // correct replies inside the measured window

	// Best-slice values (see sliceLen).
	throughput    float64 // verified replies per second
	p50us         float64
	p99us         float64
	cpuPerReplyUs float64 // server CPU per verified reply

	samples int    // latency samples in the whole window
	tail    string // highest percentile with >= 10 samples beyond it
	tailUs  float64

	// Whole-window totals.
	wall      time.Duration
	serverCPU time.Duration
	clientCPU time.Duration
	rssMB     float64
	stats     map[string]uint64 // wire stats delta over the window
}

// live is one set-up server with its connections.
type live struct {
	srv   *server
	kv    [conns]*kvConn
	http  [conns]*httpStream
	args  []string
	setup time.Duration
}

// abort ends a run that cannot be finished.
func (l *live) abort() {
	l.closeConns()
	l.srv.kill()
}

func (l *live) closeConns() {
	for _, k := range l.kv {
		if k != nil {
			// The run is over; a close error on a client socket
			// changes nothing that was measured.
			_ = k.c.Close()
		}
	}
}

// setUp spawns the workload's server and brings it to the state the
// measured window starts from: listening, preloaded, and having
// answered one verified request. The time this takes is setup_s.
func setUp(bin string, sp spec, seed uint64, runDir string, round int) (*live, error) {
	dataDir := filepath.Join(runDir, fmt.Sprintf("data-%d", round))
	tenantsFile := filepath.Join(runDir, "tenants")
	if sp.durable {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
	}
	if sp.tenants {
		if err := os.WriteFile(tenantsFile, []byte(tenantsTable()), 0o600); err != nil {
			return nil, err
		}
	}
	l := &live{args: sp.serverArgs(dataDir, tenantsFile)}
	start := time.Now()
	srv, err := spawn(filepath.Join(bin, sp.server), l.args, sp.serverProcs, filepath.Join(runDir, "server.log"))
	if err != nil {
		return nil, err
	}
	l.srv = srv
	if err := l.connect(sp, seed); err != nil {
		l.abort()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	l.setup = time.Since(start)
	return l, nil
}

// connect dials, preloads and makes the first verified request.
func (l *live) connect(sp spec, seed uint64) error {
	if sp.http {
		for c := range l.http {
			l.http[c] = newHTTPStream(seed, c)
		}
		ok, err := httpOnce(l.srv.addr, l.http[0].next())
		if err != nil {
			return err
		}
		if !ok {
			return errors.New("first HTTP reply is wrong")
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		stream, err := newKVStream(sp, seed, c)
		if err != nil {
			return err
		}
		if l.kv[c], err = dialKV(l.srv.addr, stream); err != nil {
			return err
		}
		wg.Add(1)
		go func(k *kvConn, c int) {
			defer wg.Done()
			errs[c] = k.preload(sp, seed)
		}(l.kv[c], c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	_, failed, err := l.kv[0].verifyAll([]string{ownedKey(0, 0)})
	if err != nil {
		return err
	}
	if failed > 0 {
		return errors.New("first GET after preload returned the wrong value")
	}
	return nil
}

// Set-up is repeated, and the fastest reported, because one set-up is a
// process start and little else: the first of a run pays for a cold
// binary and any of them can meet the interference sliceLen describes.
// At least minSetups times, then until setupBudget has been spent on it,
// at most maxSetups times. Only the last server is measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = time.Second
)

// socketRun sets the workload up (repeatedly when repeatSetup is set),
// then measures it for seconds.
func socketRun(bin string, sp spec, seed uint64, seconds int, repeatSetup bool) (*socketResult, error) {
	runDir := filepath.Join(workRoot, "run", sp.name)
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	// Data directories and the tenants file are temp state; the server
	// log stays behind for whoever needs to read a failure.
	defer func() {
		entries, _ := os.ReadDir(runDir)
		for _, e := range entries {
			if e.Name() != "server.log" {
				// Best effort: leftovers live under the ignored
				// workRoot and the next run removes them anyway.
				_ = os.RemoveAll(filepath.Join(runDir, e.Name()))
			}
		}
	}()

	res := &socketResult{}
	var l *live
	var spent time.Duration
	for round := 0; round < maxSetups && (round == 0 || repeatSetup) && (round < minSetups || spent < setupBudget); round++ {
		if l != nil {
			l.closeConns()
			if err := l.srv.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if l, err = setUp(bin, sp, seed, runDir, round); err != nil {
			return nil, err
		}
		res.setups = append(res.setups, l.setup.Seconds())
		spent += l.setup
	}

	if err := res.measure(l, sp, seconds); err != nil {
		l.abort()
		return nil, err
	}
	l.closeConns()
	if err := l.srv.stop(); err != nil {
		return nil, err
	}
	if sp.durable {
		if err := res.verifyRestart(bin, sp, seed, l, runDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sample is one reading the sampler takes at a slice boundary.
type sample struct {
	at       time.Time
	cpu      time.Duration // server CPU time so far
	verified int64         // correct replies so far
}

// measure runs the closed loop for warmup + seconds and fills in the
// window's results.
func (res *socketResult) measure(l *live, sp spec, seconds int) error {
	var before map[string]uint64
	if !sp.http {
		var err error
		if before, err = l.kv[0].stats(); err != nil {
			return err
		}
	}
	window := time.Duration(seconds) * time.Second
	begin := time.Now().Add(warmup)
	end := begin.Add(window)
	recs := make([]*recorder, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		recs[c] = newRecorder(begin, window)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if sp.http {
				errs[c] = runHTTP(l.srv.addr, l.http[c], end, recs[c])
			} else {
				errs[c] = l.kv[c].run(end, recs[c])
			}
		}(c)
	}

	// The sampler reads the server's CPU time and the reply count at
	// every slice boundary, so CPU per reply can be had per slice too.
	samples := make([]sample, 0, len(recs[0].slices)+1)
	self0, err := selfCPU()
	if err != nil {
		return err
	}
	for i := 0; i <= len(recs[0].slices); i++ {
		time.Sleep(time.Until(begin.Add(time.Duration(i) * sliceLen)))
		cpu, err := l.srv.cpuTime()
		if err != nil {
			return err
		}
		smp := sample{at: time.Now(), cpu: cpu}
		for _, r := range recs {
			smp.verified += r.verified.Load()
		}
		samples = append(samples, smp)
	}
	self1, err1 := selfCPU()
	rss, err2 := l.srv.rssMB()
	wg.Wait()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	first, last := samples[0], samples[len(samples)-1]
	res.wall, res.serverCPU, res.clientCPU, res.rssMB = last.at.Sub(first.at), last.cpu-first.cpu, self1-self0, rss
	if !sp.http {
		// The counters run from process start; the difference leaves
		// the preload out and covers warm-up plus window.
		after, err := l.kv[0].stats()
		if err != nil {
			return err
		}
		res.stats = make(map[string]uint64, len(after))
		//lint:detorder builds a map from a map; nothing is emitted in this order
		for name, v := range after {
			res.stats[name] = v - before[name]
		}
	}
	// A connection that lost its transport already counted its
	// unanswered requests as failed; the run reports, not aborts.
	for c, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s connection %d: %v\n", sp.name, c, err)
		}
	}
	res.summarise(recs, samples)
	return nil
}

// summarise folds the per-connection recorders and the sampler's
// readings into the run's numbers: each metric is computed per slice,
// and the best slice is the run's value (see sliceLen).
func (res *socketResult) summarise(recs []*recorder, samples []sample) {
	var all []uint32
	for i := range recs[0].slices {
		var slice []uint32
		for _, r := range recs {
			slice = append(slice, r.slices[i]...)
		}
		if len(slice) == 0 {
			continue
		}
		slices.Sort(slice)
		res.throughput = max(res.throughput, float64(len(slice))/sliceLen.Seconds())
		res.p50us = minPositive(res.p50us, float64(percentile(slice, 0.50))/1e3)
		res.p99us = minPositive(res.p99us, float64(percentile(slice, 0.99))/1e3)
		all = append(all, slice...)
	}
	for i := 1; i < len(samples); i++ {
		if n := samples[i].verified - samples[i-1].verified; n > 0 {
			cpu := samples[i].cpu - samples[i-1].cpu
			res.cpuPerReplyUs = minPositive(res.cpuPerReplyUs, float64(cpu.Nanoseconds())/1e3/float64(n))
		}
	}
	for _, r := range recs {
		res.attempted += r.attempted
		res.failed += r.failed
	}
	res.verified = res.attempted - res.failed
	res.samples = len(all)
	slices.Sort(all)
	if q, label := pickTail(len(all)); label != "" {
		res.tail, res.tailUs = label, float64(percentile(all, q))/1e3
	}
}

// minPositive returns the smaller of best and x, treating a zero best
// as not yet set.
func minPositive(best, x float64) float64 {
	if best == 0 || x < best {
		return x
	}
	return best
}

// verifyRestart restarts the durable server on the same directory and
// re-reads every key either connection had acknowledged.
func (res *socketResult) verifyRestart(bin string, sp spec, seed uint64, l *live, runDir string) error {
	srv, err := spawn(filepath.Join(bin, sp.server), l.args, sp.serverProcs, filepath.Join(runDir, "server.log"))
	if err != nil {
		return fmt.Errorf("restart on the same data directory: %w", err)
	}
	for c := 0; c < conns; c++ {
		k, err := dialKV(srv.addr, l.kv[c].stream)
		if err != nil {
			srv.kill()
			return err
		}
		k.m = l.kv[c].m
		keys := make([]string, 0, len(k.m))
		for key := range k.m {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		attempted, failed, err := k.verifyAll(keys)
		// Read-only connection: nothing is lost if its close fails.
		_ = k.c.Close()
		res.attempted += attempted
		res.failed += failed
		if err != nil {
			srv.kill()
			return fmt.Errorf("re-read after restart: %w", err)
		}
	}
	return srv.stop()
}
