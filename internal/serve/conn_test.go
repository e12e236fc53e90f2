package serve

import (
	"errors"
	"io"
	"log"
	"strings"
	"testing"
)

// halfDuplex is a connection whose two directions a test supplies.
type halfDuplex struct {
	io.Reader
	io.Writer
}

// failingWriter refuses every write, like a connection the peer reset.
type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

// TestBufferFlushesBeforeEveryRead checks the rule at its source: what
// the loop wrote is on the connection by the time the connection is
// read, and not before.
func TestBufferFlushesBeforeEveryRead(t *testing.T) {
	var out strings.Builder
	r, w := Buffer(&halfDuplex{strings.NewReader("one\ntwo\n"), &out})
	if _, err := r.ReadString('\n'); err != nil { // reads the socket: both lines arrive
		t.Fatal(err)
	}
	if _, err := io.WriteString(w, "ONE\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); err != nil { // served from r's buffer: no read, no flush
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("%q left before the loop went back to the socket", out.String())
	}
	if _, err := io.WriteString(w, "TWO\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); !errors.Is(err, io.EOF) { // reads the socket again
		t.Fatalf("err = %v, want EOF", err)
	}
	if out.String() != "ONE\nTWO\n" {
		t.Fatalf("on the connection at the second read: %q", out.String())
	}
}

// TestBufferReadReportsFailedFlush: when the replies cannot be written
// the loop must not block reading for more requests.
func TestBufferReadReportsFailedFlush(t *testing.T) {
	reset := errors.New("connection reset")
	r, w := Buffer(&halfDuplex{strings.NewReader("never read\n"), failingWriter{reset}})
	if _, err := io.WriteString(w, "reply\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); !errors.Is(err, reset) {
		t.Fatalf("read err = %v, want the write error", err)
	}
	if err := w.Flush(); !errors.Is(err, reset) {
		t.Fatalf("flush err = %v, want the write error kept", err)
	}
}

// TestLogContainedPacesTheLog: every call counts, only powers of two
// log, and a line names the connection, the tenant and the total.
func TestLogContainedPacesTheLog(t *testing.T) {
	var logs strings.Builder
	f := New(Backend[string, string]{Name: "echo"}, log.New(&logs, "", 0))
	for i := 0; i < 1000; i++ {
		f.LogContained(4, "")
	}
	if lines := strings.Count(logs.String(), "\n"); lines != 10 { // 1, 2, 4, … 512
		t.Errorf("%d lines for 1000 violations, want 10:\n%s", lines, logs.String())
	}
	logs.Reset()
	for i := 0; i < 24; i++ { // 1001 … 1024
		f.LogContained(9, "mallory")
	}
	want := "conn 9: tenant mallory: contained memory-safety violation (domain rewound), 1024 on this server so far\n"
	if logs.String() != want {
		t.Errorf("logged %q, want %q", logs.String(), want)
	}
}
