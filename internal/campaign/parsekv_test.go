package campaign

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"repro/internal/attackgen"
	"repro/internal/kvstore"
	"repro/internal/workload"
)

// TestParseKVMirrorsReadCommand pins ParseKV (the engine's in-domain
// parser, kept for the gap its doc comment measures) to the production
// parser:
//
//   - every ParseKV-accepted input must be accepted by ReadCommand with
//     identical op/key/value and no unconsumed bytes;
//   - every well-formed rendered request must be accepted identically
//     by both.
//
// ReadCommand is deliberately laxer in stream-shaped ways (trailing
// bytes after a complete command, bare-LF line endings), so
// ParseKV-rejection implies nothing; acceptance is what must agree.
func TestParseKVMirrorsReadCommand(t *testing.T) {
	gen, err := workload.NewKV(workload.KVConfig{Seed: 5, Keys: 64, ValueSize: 24, GetFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var corpus [][]byte
	for i := 0; i < 200; i++ {
		corpus = append(corpus, workload.RenderKVText(gen.Next()))
	}
	corpus = append(corpus, attackgen.MalformedKVCorpus(5, 200)...)
	corpus = append(corpus,
		[]byte("set k x 0 5\r\nhello\r\n"),  // bad flags
		[]byte("set k 0 -1 5\r\nhello\r\n"), // bad exptime
		[]byte("set k 0 0 1048577\r\n"),     // over MaxValueSize
		[]byte("gets key-1\r\n"),            //
		[]byte("get k\nno-crlf"),            // bare LF: stream parser territory
		[]byte("stats\r\n"), []byte("quit\r\n"),
	)

	for _, in := range corpus {
		op, key, value, ok := ParseKV(in)
		r := bufio.NewReader(bytes.NewReader(in))
		cmd, rerr := kvstore.ReadCommand(r)
		leftover, _ := io.ReadAll(r)
		if ok {
			if rerr != nil {
				t.Errorf("ParseKV accepted %q but ReadCommand rejected: %v", in, rerr)
				continue
			}
			if cmd.Stats || cmd.Quit {
				t.Errorf("ParseKV accepted control command %q", in)
				continue
			}
			if cmd.Req.Op != op || cmd.Req.Key != key || !bytes.Equal(cmd.Req.Value, value) {
				t.Errorf("parsers disagree on %q: campaign %v/%q/%q vs kvstore %v/%q/%q",
					in, op, key, value, cmd.Req.Op, cmd.Req.Key, cmd.Req.Value)
			}
			if len(leftover) != 0 {
				t.Errorf("ParseKV accepted %q though ReadCommand left %q unconsumed", in, leftover)
			}
		}
		// Reverse direction: a CRLF-only, fully-consumed data command the
		// production parser accepts must be accepted by the mirror.
		// ReadCommand's stream leniencies (bare-LF endings, trailing
		// bytes) are excluded by the leftover and framing guards.
		if !ok && rerr == nil && !cmd.Stats && !cmd.Quit && len(leftover) == 0 && crlfFramed(in) {
			t.Errorf("ReadCommand accepted complete command %q but ParseKV rejected it", in)
		}
	}
}

// crlfFramed reports whether every line break in b is a CRLF (the
// framing ParseKV requires; ReadCommand also tolerates bare LF).
func crlfFramed(b []byte) bool {
	if !bytes.HasSuffix(b, []byte("\r\n")) {
		return false
	}
	for i, c := range b {
		if c == '\n' && (i == 0 || b[i-1] != '\r') {
			return false
		}
	}
	return true
}
