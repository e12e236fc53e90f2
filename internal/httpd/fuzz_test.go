package httpd

import (
	"strings"
	"testing"

	"repro/internal/attackgen"
	"repro/internal/core"
)

// FuzzParse checks the HTTP head parser never panics and that accepted
// requests satisfy the structural limits.
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
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		pr, err := parse(in)
		if err != nil {
			return
		}
		if pr.Method == "" || !strings.HasPrefix(pr.Path, "/") || !strings.HasPrefix(pr.Proto, "HTTP/") {
			t.Errorf("accepted malformed request line: %+v", pr)
		}
		if len(pr.Headers) > MaxHeaders {
			t.Errorf("accepted %d headers", len(pr.Headers))
		}
	})
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
