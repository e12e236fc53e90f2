package httpd

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseValidRequest(t *testing.T) {
	raw := BuildRequest("GET", "/index.html", map[string]string{"accept": "text/html"})
	pr, err := Parse(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if pr.Method != "GET" || pr.Path != "/index.html" || pr.Proto != "HTTP/1.1" {
		t.Errorf("parsed = %+v", pr)
	}
	accept, _ := pr.Header("accept")
	host, _ := pr.Header("host")
	if accept != "text/html" || host != "localhost" {
		t.Errorf("headers: accept %q, host %q", accept, host)
	}
	for raw, want := range map[string][2]string{
		"GET / HTTP/1.1\r\n\r\n":              {"GET", "/"},
		"HEAD /x HTTP/1.1\r\nhost: h\r\n\r\n": {"HEAD", "/x"},
	} {
		pr, err := Parse([]byte(raw))
		if err != nil || pr.Method != want[0] || pr.Path != want[1] {
			t.Errorf("Parse(%q) = %s %s, %v; want %s %s", raw, pr.Method, pr.Path, err, want[0], want[1])
		}
	}
}

func TestParseHeaderNormalization(t *testing.T) {
	raw := []byte("GET / HTTP/1.1\r\nX-Custom-Header:   spaced value  \r\n\r\n")
	pr, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := pr.Header("x-custom-header"); v != "spaced value" {
		t.Errorf("header = %q", v)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := map[string]string{
		"no terminator":     "GET / HTTP/1.1\r\n",
		"bad request line":  "GET /\r\n\r\n",
		"empty method":      " / HTTP/1.1\r\n\r\n",
		"relative path":     "GET index.html HTTP/1.1\r\n\r\n",
		"bad proto":         "GET / FTP/1.1\r\n\r\n",
		"header no colon":   "GET / HTTP/1.1\r\nbadheader\r\n\r\n",
		"header empty name": "GET / HTTP/1.1\r\n: value\r\n\r\n",
		"empty":             "",
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse([]byte(raw)); !errors.Is(err, ErrMalformed) {
				t.Errorf("err = %v, want ErrMalformed", err)
			}
		})
	}
}

func TestParseLimits(t *testing.T) {
	long := "GET /" + strings.Repeat("a", MaxRequestLine) + " HTTP/1.1\r\n\r\n"
	if _, err := Parse([]byte(long)); !errors.Is(err, ErrMalformed) {
		t.Error("overlong request line accepted")
	}
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < MaxHeaders+1; i++ {
		b.WriteString("h: v\r\n")
	}
	b.WriteString("\r\n")
	if _, err := Parse([]byte(b.String())); !errors.Is(err, ErrMalformed) {
		t.Error("too many headers accepted")
	}
	hugeHeader := "GET / HTTP/1.1\r\nh: " + strings.Repeat("v", MaxHeaderLine) + "\r\n\r\n"
	if _, err := Parse([]byte(hugeHeader)); !errors.Is(err, ErrMalformed) {
		t.Error("overlong header accepted")
	}
}

func newServer(t *testing.T, mode Mode) (*Server, *core.System) {
	t.Helper()
	sys := core.NewSystem(core.DefaultConfig())
	srv, err := NewServer(sys, Config{Mode: mode, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.HandleFunc("/", []byte("<html>home</html>"))
	srv.HandleFunc("/big", make([]byte, 64<<10))
	return srv, sys
}

func TestServeStatic(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeSDRaD} {
		t.Run(mode.String(), func(t *testing.T) {
			srv, _ := newServer(t, mode)
			resp := srv.Serve(0, BuildRequest("GET", "/", nil))
			if resp.Status != 200 || string(resp.Body) != "<html>home</html>" || resp.Err != nil {
				t.Fatalf("resp = %+v", resp)
			}
			if resp.Latency <= 0 {
				t.Error("no latency")
			}
			if r := srv.Serve(0, BuildRequest("GET", "/missing", nil)); r.Status != 404 {
				t.Errorf("missing = %d", r.Status)
			}
			if r := srv.Serve(0, BuildRequest("POST", "/", nil)); r.Status != 405 {
				t.Errorf("POST = %d", r.Status)
			}
			if r := srv.Serve(0, BuildRequest("HEAD", "/", nil)); r.Status != 200 || r.Body != nil {
				t.Errorf("HEAD = %+v", r)
			}
			if r := srv.Serve(0, []byte("garbage\r\n\r\n")); r.Status != 400 {
				t.Errorf("garbage = %d", r.Status)
			}
		})
	}
}

func TestSDRaDContainsParserExploit(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	evil := BuildRequest("GET", "/", map[string]string{AttackHeader: "1"})
	resp := srv.Serve(1, evil)
	if !resp.Contained || resp.Status != 400 {
		t.Fatalf("attack resp = %+v", resp)
	}
	if srv.Stats().Violations != 1 {
		t.Errorf("violations = %d", srv.Stats().Violations)
	}
	// Service unaffected.
	r := srv.Serve(0, BuildRequest("GET", "/", nil))
	if r.Status != 200 || r.Err != nil {
		t.Errorf("post-attack request: %+v", r)
	}
	if srv.Stats().Crashes != 0 {
		t.Error("SDRaD mode crashed")
	}
}

func TestRepeatedAttacksSDRaDStaysUp(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	evil := BuildRequest("GET", "/", map[string]string{AttackHeader: "1"})
	good := BuildRequest("GET", "/", nil)
	for i := 0; i < 100; i++ {
		_ = srv.Serve(i, evil)
		if r := srv.Serve(i, good); r.Status != 200 {
			t.Fatalf("iteration %d: benign request failed: %+v", i, r)
		}
	}
	if srv.Stats().Violations != 100 {
		t.Errorf("violations = %d", srv.Stats().Violations)
	}
}

func TestConfigValidation(t *testing.T) {
	sys := core.NewSystem(core.DefaultConfig())
	if _, err := NewServer(sys, Config{Mode: Mode(42)}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestContentBytes(t *testing.T) {
	srv, _ := newServer(t, ModeSDRaD)
	if srv.ContentBytes() != uint64(len("<html>home</html>"))+64<<10 {
		t.Errorf("ContentBytes = %d", srv.ContentBytes())
	}
}

func TestModeString(t *testing.T) {
	if ModeNative.String() != "native" || ModeSDRaD.String() != "sdrad" || Mode(7).String() == "" {
		t.Error("mode strings")
	}
}

// TestParseAgainstStdlibOracle checks our parser against net/http's
// request reader on a corpus of valid requests: anything both accept
// must agree on method, path, and header values.
func TestParseAgainstStdlibOracle(t *testing.T) {
	corpus := [][]byte{
		BuildRequest("GET", "/", nil),
		BuildRequest("GET", "/a/b/c?q=1", map[string]string{"accept": "text/html"}),
		BuildRequest("HEAD", "/x", map[string]string{"x-custom": "v1"}),
		BuildRequest("POST", "/submit", map[string]string{"content-type": "application/json"}),
		[]byte("GET /spaced HTTP/1.1\r\nname:   padded value \r\n\r\n"),
	}
	for i, raw := range corpus {
		ours, ourErr := Parse(raw)
		std, stdErr := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
		if ourErr != nil || stdErr != nil {
			t.Fatalf("corpus %d: ours=%v stdlib=%v", i, ourErr, stdErr)
		}
		if ours.Method != std.Method {
			t.Errorf("corpus %d: method %q vs stdlib %q", i, ours.Method, std.Method)
		}
		if ours.Path != std.URL.RequestURI() {
			t.Errorf("corpus %d: path %q vs stdlib %q", i, ours.Path, std.URL.RequestURI())
		}
		for name, vals := range std.Header {
			want := strings.Join(vals, ", ")
			if got, _ := ours.Header(strings.ToLower(name)); got != want {
				t.Errorf("corpus %d: header %s = %q vs stdlib %q", i, name, got, want)
			}
		}
	}
}

// And on garbage: we must never accept something stdlib rejects as
// structurally broken at the request-line level.
func TestParseNotLaxerThanStdlibOnRequestLine(t *testing.T) {
	bad := [][]byte{
		[]byte("GET\r\n\r\n"),
		[]byte("GET  HTTP/1.1\r\n\r\n"),
		[]byte(" / HTTP/1.1\r\n\r\n"),
		[]byte("\r\n\r\n"),
	}
	for i, raw := range bad {
		if _, err := Parse(raw); err == nil {
			if _, stdErr := http.ReadRequest(bufio.NewReader(bytes.NewReader(raw))); stdErr != nil {
				t.Errorf("corpus %d: we accepted what stdlib rejects", i)
			}
		}
	}
}
