package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/kvstore"
)

// addrWriter is a log sink that hands over the address of run's
// "listening on <addr>" line (what benchmark/proc.go waits for, too).
type addrWriter struct{ addr chan string }

var listeningOn = regexp.MustCompile(`listening on (\S+)`)

func (w addrWriter) Write(p []byte) (int, error) {
	if m := listeningOn.FindSubmatch(p); m != nil {
		w.addr <- string(m[1])
	}
	return len(p), nil
}

// session starts the server exactly as main does — run, on a free port,
// the flag defaults at two shards — plays script on its first
// connection, either as one segment or one command at a time, and shuts
// the server down with SIGTERM. It returns each command's reply.
func session(t *testing.T, script []string, oneSegment bool) []string {
	t.Helper()
	sink := addrWriter{addr: make(chan string, 1)}
	log.SetOutput(sink)
	defer log.SetOutput(os.Stderr)
	done := make(chan error, 1)
	go func() {
		done <- run("127.0.0.1:0", "sdrad", 64<<20, 2, 0, 1024, 32, nil, "", nil, false, 1, 8)
	}()
	var addr string
	select {
	case addr = <-sink.addr:
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }() // a failed session still hangs up; closing twice is harmless
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	r := bufio.NewReader(conn)
	replies := make([]string, 0, len(script))
	if oneSegment {
		if _, err := io.WriteString(conn, strings.Join(script, "")); err != nil {
			t.Fatal(err)
		}
	}
	for _, cmd := range script {
		if !oneSegment {
			if _, err := io.WriteString(conn, cmd); err != nil {
				t.Fatal(err)
			}
		}
		reply, err := readReply(r)
		if err != nil {
			t.Fatalf("after %d replies: %v", len(replies), err)
		}
		replies = append(replies, reply)
	}

	// Serve waits for open connections, so hang up first. SIGTERM to
	// ourselves is then the operator's shutdown: ServeUntilSignal
	// registered for it before the first reply above could be written.
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	return replies
}

// readReply reads one reply: a VALUE line brings its data block and END
// with it, anything else is one line.
func readReply(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VALUE ") {
		return line, err
	}
	for i := 0; i < 2; i++ {
		more, err := r.ReadString('\n')
		if err != nil {
			return line, err
		}
		line += more
	}
	return line, nil
}

// TestPipelinedWindowMatchesSerialSession sends one segment of 32
// commands — an exploit SET among them, then a get of the key it
// targeted — to the real server over a real socket: the replies arrive
// in order, the exploit is contained and the old value survives. The
// same session one command at a time draws the same bytes.
func TestPipelinedWindowMatchesSerialSession(t *testing.T) {
	exploit := kvstore.AttackMarker + "-payload"
	script := []string{
		"set victim 5 0 3\r\nold\r\n",
		fmt.Sprintf("set victim 0 0 %d\r\n%s\r\n", len(exploit), exploit),
		"get victim\r\n",
	}
	want := []string{"STORED\r\n", "SERVER_ERROR ", "VALUE victim 5 3\r\nold\r\nEND\r\n"}
	for i := 0; len(script) < 32; i++ {
		k := fmt.Sprintf("k%d", i)
		script = append(script, "set "+k+" 0 0 2\r\nv"+fmt.Sprint(i%10)+"\r\n", "get "+k+"\r\n", "delete "+k+"\r\n", "get "+k+"\r\n")
		want = append(want, "STORED\r\n", "VALUE "+k+" 0 2\r\nv"+fmt.Sprint(i%10)+"\r\nEND\r\n", "DELETED\r\n", "END\r\n")
	}
	script, want = script[:32], want[:32]

	pipelined := session(t, script, true)
	for i, reply := range pipelined {
		if i == 1 {
			if !strings.HasPrefix(reply, want[i]) || !strings.Contains(reply, "violation") {
				t.Errorf("the exploit SET drew %q, want a contained violation", reply)
			}
		} else if reply != want[i] {
			t.Errorf("reply %d to %q = %q, want %q", i, script[i], reply, want[i])
		}
	}
	serial := session(t, script, false)
	if got, want := strings.Join(serial, ""), strings.Join(pipelined, ""); got != want {
		t.Errorf("one command at a time:\n%q\none segment:\n%q", got, want)
	}
}
