package httpd

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"repro/internal/attackgen"
	"repro/internal/core"
)

// FuzzParse checks the HTTP head parser never panics, that accepted
// requests satisfy the structural limits, and that parse and
// requestPath agree with the Split-based forms they replaced
// (splitParse, splitRequestPath): same fields, same header map, same
// error text.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"GET / HTTP/1.1\r\n\r\n",
		"GET /path HTTP/1.0\r\nhost: x\r\naccept: */*\r\n\r\n",
		"POST /x HTTP/1.1\r\ncontent-length: 3\r\n\r\n",
		"GET / HTTP/1.1\r\nbad header\r\n\r\n",
		"\r\n\r\n",
		"GET  HTTP/1.1\r\n\r\n",
		strings.Repeat("A", 5000) + "\r\n\r\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("h: v\r\n", 200) + "\r\n",
		strings.Repeat("a", maxRequestHead+4096), // a line that never ends
		// Appended after the seeds above so their names do not move.
		"GET  / HTTP/1.1\r\n\r\n",             // double space
		"GET / HTTP/1.1 \r\n\r\n",             // trailing space
		"GET / HTTP/1.1\r\n \r\nh: v\r\n\r\n", // blank-looking header line
		"\r\nhost: x\r\n\r\n",                 // empty request line
		"GET / HTTP/1.1\r\nh: v\r\n\r\n\r\nafter: head\r\n\r\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("h: v\r\n", MaxHeaders) + "\r\n",
		"GET / HTTP/1.1\r\n" + strings.Repeat("h: v\r\n", MaxHeaders+1) + "\r\n",
		"GET / HTTP/1.1\nhost: x\n\n", // bare \n line endings
		"GET / HTTP/1.1\nhost: x\r\n\r\n",
		"GET /healthz HTTP/1.1\r\nauthorization: Bearer a\r\nAuthorization: Bearer b\r\n\r\n",
		"GET /drainz HTTP/1.1\r\r\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if got, want := string(requestPath(in)), splitRequestPath(in); got != want {
			t.Errorf("requestPath(%q) = %q, the Split form says %q", in, got, want)
		}
		pr, err := parse(in)
		want, werr := splitParse(in)
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("parse(%q) error %v, the Split form says %v", in, err, werr)
		}
		if err != nil {
			return
		}
		if pr.Method != want.Method || pr.Path != want.Path || pr.Proto != want.Proto || !maps.Equal(pr.Headers, want.Headers) {
			t.Errorf("parse(%q) = %+v, the Split form says %+v", in, pr, want)
		}
		if pr.Method == "" || !strings.HasPrefix(pr.Path, "/") || !strings.HasPrefix(pr.Proto, "HTTP/") {
			t.Errorf("accepted malformed request line: %+v", pr)
		}
		if len(pr.Headers) > MaxHeaders {
			t.Errorf("accepted %d headers", len(pr.Headers))
		}
	})
}

// splitParse is parse as it was written with strings.Split, kept
// verbatim as the reference the Cut loop must agree with.
func splitParse(b []byte) (ParsedRequest, error) {
	text := string(b)
	head, _, found := strings.Cut(text, "\r\n\r\n")
	if !found {
		return ParsedRequest{}, fmt.Errorf("%w: missing head terminator", ErrMalformed)
	}
	lines := strings.Split(head, "\r\n")
	if len(lines[0]) > MaxRequestLine {
		return ParsedRequest{}, fmt.Errorf("%w: request line too long", ErrMalformed)
	}
	parts := strings.Split(lines[0], " ")
	if len(parts) != 3 {
		return ParsedRequest{}, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	pr := ParsedRequest{
		Method:  parts[0],
		Path:    parts[1],
		Proto:   parts[2],
		Headers: make(map[string]string, len(lines)-1),
	}
	if pr.Method == "" || !strings.HasPrefix(pr.Path, "/") || !strings.HasPrefix(pr.Proto, "HTTP/") {
		return ParsedRequest{}, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	if len(lines)-1 > MaxHeaders {
		return ParsedRequest{}, fmt.Errorf("%w: too many headers", ErrMalformed)
	}
	for _, ln := range lines[1:] {
		if ln == "" {
			continue
		}
		if len(ln) > MaxHeaderLine {
			return ParsedRequest{}, fmt.Errorf("%w: header line too long", ErrMalformed)
		}
		name, value, found := strings.Cut(ln, ":")
		if !found || name == "" {
			return ParsedRequest{}, fmt.Errorf("%w: bad header %q", ErrMalformed, ln)
		}
		pr.Headers[strings.ToLower(strings.TrimSpace(name))] = strings.TrimSpace(value)
	}
	return pr, nil
}

// splitRequestPath is requestPath as it was written with bytes.Split,
// kept verbatim as the reference.
func splitRequestPath(raw []byte) string {
	line := raw
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i]
	}
	parts := bytes.Split(bytes.TrimRight(line, "\r"), []byte(" "))
	if len(parts) != 3 {
		return ""
	}
	return string(parts[1])
}

// FuzzServeSDRaD drives arbitrary request bytes through the full SDRaD
// serve path — in-domain parse, attack-header injection, routing — and
// asserts the supervisor contract: malformed input gets a 4xx, a
// triggered parser bug is contained as a detection (the parse domain
// rewinds), and the supervisor never panics and keeps serving.
func FuzzServeSDRaD(f *testing.F) {
	seeds := [][]byte{
		[]byte("GET / HTTP/1.1\r\nhost: x\r\n\r\n"),
		[]byte("HEAD /index.html HTTP/1.1\r\n\r\n"),
		[]byte("GET /missing HTTP/1.1\r\n\r\n"),
		[]byte("POST / HTTP/1.1\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\n" + AttackHeader + ": 1\r\n\r\n"),
		[]byte("GET  HTTP/1.1\r\n\r\n"),
		[]byte("\r\n\r\n"),
		[]byte("GET / HTTP/1.1\r\nbad header\r\n\r\n"),
	}
	seeds = append(seeds, attackgen.MalformedHTTPCorpus(1, 16)...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		sys := core.NewSystem(core.DefaultConfig())
		srv, err := NewServer(sys, Config{Mode: ModeSDRaD, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		srv.HandleFunc("/", []byte("home"))
		srv.HandleFunc("/index.html", []byte("index"))

		pr, perr := parse(in)
		_, attacked := pr.Headers[AttackHeader]
		attacked = attacked && perr == nil

		resp := srv.Serve(0, in)
		if attacked {
			// The injected parser bug must surface as a contained
			// detection, never a panic or a silent success.
			if !resp.Contained {
				t.Errorf("attack request not contained: %+v", resp)
			}
			if sys.Counters().Total() == 0 {
				t.Error("contained violation recorded no detection")
			}
			if st := srv.Stats(); st.Violations == 0 {
				t.Error("violation not accounted")
			}
		} else {
			if resp.Contained {
				t.Errorf("benign request %q reported contained", in)
			}
			if perr != nil && resp.Status != 400 && resp.Status != 500 {
				t.Errorf("malformed request %q got status %d, want 400", in, resp.Status)
			}
		}
		// The survivor keeps serving after any single request.
		probe := srv.Serve(1, []byte("GET / HTTP/1.1\r\n\r\n"))
		if probe.Status != 200 || probe.Contained {
			t.Errorf("server unserviceable after %q: %+v", in, probe)
		}
	})
}
