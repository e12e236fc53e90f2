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
		f.LogPaced(EventContained, 4, "", nil)
	}
	if lines := strings.Count(logs.String(), "\n"); lines != 10 { // 1, 2, 4, … 512
		t.Errorf("%d lines for 1000 violations, want 10:\n%s", lines, logs.String())
	}
	logs.Reset()
	for i := 0; i < 24; i++ { // 1001 … 1024
		f.LogPaced(EventContained, 9, "mallory", nil)
	}
	want := "conn 9: tenant mallory: contained memory-safety violation (domain rewound), 1024 on this server so far\n"
	if logs.String() != want {
		t.Errorf("logged %q, want %q", logs.String(), want)
	}
}

// TestLogPacedCountsEachEventApart: one event's flood neither silences
// another's first line nor shares its total, and a cause is appended.
func TestLogPacedCountsEachEventApart(t *testing.T) {
	var logs strings.Builder
	f := New(Backend[string, string]{Name: "echo"}, log.New(&logs, "", 0))
	for i := 0; i < 3; i++ {
		f.LogPaced(EventReadFailed, 1, "", io.EOF)
	}
	logs.Reset()
	f.LogPaced(EventAuthRejected, 2, "", errors.New("bad token"))
	f.LogPaced(EventReadFailed, 3, "", io.EOF) // the fourth read failure
	want := "conn 2: auth rejected: bad token, 1 on this server so far\n" +
		"conn 3: read: EOF, 4 on this server so far\n"
	if logs.String() != want {
		t.Errorf("logged %q, want %q", logs.String(), want)
	}
	// Only the written lines may allocate: totals 1026 … 1126 write none.
	for i := 0; i < 1025; i++ {
		f.LogPaced(EventContained, 1000, "mallory", io.EOF)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.LogPaced(EventContained, 1000, "mallory", io.EOF) }); allocs != 0 {
		t.Errorf("%v allocations per unlogged event, want none", allocs)
	}
}
