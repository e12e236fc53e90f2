package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// workRoot holds everything a run leaves behind — server binaries,
// logs, temp data directories, results — inside the checkout and out of
// git (see .gitignore).
const workRoot = ".bench_build"

// serverBinaries are the cmd/ packages the workloads drive.
var serverBinaries = []string{"sdrad-kvd", "sdrad-httpd", "sdrad-cluster"}

// buildServers compiles the three server binaries into workRoot/bin.
// The go tool relinks only what is stale, so after the first run of a
// checkout this is a fraction of a second; it is never part of setup_s.
func buildServers() (string, error) {
	bin, err := filepath.Abs(filepath.Join(workRoot, "bin"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	args := []string{"build", "-o", bin + string(filepath.Separator)}
	for _, b := range serverBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return bin, nil
}

// children tracks every server process the generator has started, so a
// failure anywhere — an error return, a panic, a signal — can kill them
// all before the generator exits.
var children struct {
	sync.Mutex
	procs map[*server]struct{}
}

func killChildren() {
	children.Lock()
	var live []*server
	//lint:detorder every child gets the same kill; order cannot matter
	for s := range children.procs {
		live = append(live, s)
	}
	children.Unlock()
	for _, s := range live {
		s.kill()
	}
}

// server is one running server process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *os.File
	waited chan struct{} // closed once cmd.Wait returned
}

// startTimeout bounds how long a server may take to log its listening
// line; stopTimeout how long a SIGTERM drain may take before SIGKILL.
const (
	startTimeout = 15 * time.Second
	stopTimeout  = 10 * time.Second
)

// spawn starts bin with args on an ephemeral loopback port and waits
// for its "listening on" log line. Stderr goes straight to logPath: the
// kernel drains it, so a server logging one line per contained
// violation can never stall on a pipe the generator is too busy to
// read.
func spawn(bin string, args []string, procs int, logPath string) (*server, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
	}
	if err := cmd.Start(); err != nil {
		return nil, errors.Join(err, logf.Close())
	}
	s := &server{cmd: cmd, log: logf, waited: make(chan struct{})}
	children.Lock()
	if children.procs == nil {
		children.procs = make(map[*server]struct{})
	}
	children.procs[s] = struct{}{}
	children.Unlock()
	go func() {
		// The exit status is not an outcome the run depends on: a
		// killed server exits non-zero by design, and a server that
		// died early shows up as failed requests.
		_ = cmd.Wait()
		close(s.waited)
	}()

	deadline := time.Now().Add(startTimeout)
	for {
		if addr := listeningAddr(logPath); addr != "" {
			s.addr = addr
			return s, nil
		}
		select {
		case <-s.waited:
			s.release()
			return nil, fmt.Errorf("%s exited before listening (see %s)", filepath.Base(bin), logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("%s did not log a listening address within %v (see %s)", filepath.Base(bin), startTimeout, logPath)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// listeningAddr scans the log for "listening on <addr>".
func listeningAddr(logPath string) string {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return ""
	}
	const marker = "listening on "
	i := bytes.Index(b, []byte(marker))
	if i < 0 {
		return ""
	}
	rest := b[i+len(marker):]
	end := bytes.IndexAny(rest, " \n")
	if end < 0 {
		return "" // line still being written
	}
	return string(rest[:end])
}

// stop asks the server to drain with SIGTERM, waits for it to exit, and
// kills it if the drain overruns.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		s.kill()
		return err
	}
	select {
	case <-s.waited:
		s.release()
		return nil
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("server did not drain within %v of SIGTERM; killed", stopTimeout)
	}
}

// kill ends the server at once and waits for it to be reaped.
func (s *server) kill() {
	// Kill fails only when the process is already gone, which is the
	// state this call wants.
	_ = s.cmd.Process.Kill()
	<-s.waited
	s.release()
}

func (s *server) release() {
	children.Lock()
	_, live := children.procs[s]
	delete(children.procs, s)
	children.Unlock()
	if live {
		if err := s.log.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: close server log: %v\n", err)
		}
	}
}

// cpuTime returns the CPU time the process's threads have run for, in
// nanoseconds, summed from /proc/<pid>/task/*/schedstat. It is read at
// every slice boundary, which /proc/<pid>/stat's 10 ms tick is too
// coarse for.
func (s *server) cpuTime() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // the thread exited since ReadDir
			}
			return 0, err
		}
		ran, err := parseSchedstat(b)
		if err != nil {
			return 0, err
		}
		total += ran
	}
	return total, nil
}

// parseSchedstat returns the first field of a schedstat line: time
// spent on the CPU, in nanoseconds.
func parseSchedstat(b []byte) (time.Duration, error) {
	fields := strings.Fields(string(b))
	if len(fields) != 3 {
		return 0, fmt.Errorf("unexpected schedstat format: %q", b)
	}
	ns, err := strconv.ParseInt(fields[0], 10, 64)
	return time.Duration(ns), err
}

// rssMB returns the process's resident set in MiB from /proc/<pid>/statm.
func (s *server) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0, fmt.Errorf("unexpected /proc statm format: %q", b)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), nil
}

// selfCPU returns the generator's own user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
