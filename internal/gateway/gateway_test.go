package gateway

import (
	"strings"
	"testing"
)

// quarantined reports whether tenant is currently quarantined.
func quarantined(g *Gateway, tenant string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ts := g.tenants[tenant]
	return ts != nil && ts.quarantined
}

func testTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable(map[string]string{
		"alice": "tok-alice-1",
		"bob":   "tok-bob-2",
	})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab
}

func TestParseTable(t *testing.T) {
	tab, err := ParseTable(strings.NewReader(`
# comment
beta  tok-b
alpha tok-a
`))
	if err != nil {
		t.Fatalf("ParseTable: %v", err)
	}
	got := tab.Tenants()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Tenants() = %v, want [alpha beta]", got)
	}
	if name, ok := tab.Lookup([]byte("tok-b")); !ok || name != "beta" {
		t.Fatalf("Lookup(tok-b) = %q,%v", name, ok)
	}
	if _, ok := tab.Lookup([]byte("tok-x")); ok {
		t.Fatal("Lookup(tok-x) matched")
	}
	if _, ok := tab.Lookup(nil); ok {
		t.Fatal("Lookup(nil) matched")
	}
}

func TestParseTableRejects(t *testing.T) {
	cases := map[string]string{
		"fields":    "alpha\n",
		"name":      "Alpha tok-a\n",
		"dup-name":  "a t1\na t2\n",
		"dup-token": "a t1\nb t1\n",
		"empty":     "# nothing\n",
		"long":      "a " + strings.Repeat("x", MaxTokenLen+1) + "\n",
	}
	for name, src := range cases {
		if _, err := ParseTable(strings.NewReader(src)); err == nil {
			t.Errorf("%s: ParseTable accepted %q", name, src)
		}
	}
}

func TestBearerToken(t *testing.T) {
	head := []byte("GET / HTTP/1.1\r\nHost: h\r\nAuthorization: Bearer tok-1\r\n\r\nbody")
	tok, aerr := BearerToken(head)
	if aerr != nil || string(tok) != "tok-1" {
		t.Fatalf("BearerToken = %q, %v", tok, aerr)
	}
	// Case-insensitive header name and scheme.
	tok, aerr = BearerToken([]byte("GET / HTTP/1.1\r\nauthorization: bearer tok-2\r\n\r\n"))
	if aerr != nil || string(tok) != "tok-2" {
		t.Fatalf("BearerToken lower = %q, %v", tok, aerr)
	}
	bad := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"),                                                // missing
		[]byte("GET / HTTP/1.1\r\nAuthorization: Basic dXNlcg==\r\n\r\n"),                          // wrong scheme
		[]byte("GET / HTTP/1.1\r\nAuthorization: Bearer\r\n\r\n"),                                  // no token
		[]byte("GET / HTTP/1.1\r\nAuthorization: Bearer a b\r\n\r\n"),                              // space in token
		[]byte("GET / HTTP/1.1\r\nAuthorization: Bearer t1\r\nAuthorization: Bearer t2\r\n\r\n"),   // duplicate
		[]byte("GET / HTTP/1.1\r\nAuthorization: Bearer " + strings.Repeat("x", 300) + "\r\n\r\n"), // oversized
	}
	for i, raw := range bad {
		if _, aerr := BearerToken(raw); aerr == nil {
			t.Errorf("case %d: BearerToken accepted %q", i, raw)
		}
	}
}

func TestRateLimitDeterministic(t *testing.T) {
	run := func() []string {
		g, err := New(Config{
			Table:  testTable(t),
			Limits: Limits{Burst: 2, RefillEvery: 3, MaxInflight: 8},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var out []string
		for i := 0; i < 20; i++ {
			tk, err := g.Admit("alice")
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			out = append(out, "ok")
			tk.Done(false, false)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("admission sequence diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	// Burst of 2 plus the refill landing on the 3rd arrival admits the
	// first three; arrival 4 is the first rate limit.
	if a[0] != "ok" || a[1] != "ok" || a[2] != "ok" {
		t.Fatalf("burst not admitted: %v", a[:3])
	}
	if !strings.Contains(a[3], "rate limited") {
		t.Fatalf("arrival 3: want rate limit, got %q", a[3])
	}
	okCount := 0
	for _, s := range a {
		if s == "ok" {
			okCount++
		}
	}
	if okCount != 2+6 { // burst 2 + 18 remaining arrivals / 3
		t.Fatalf("okCount = %d, want 8 (sequence %v)", okCount, a)
	}
}

func TestQuota(t *testing.T) {
	g, err := New(Config{
		Table:  testTable(t),
		Limits: Limits{Burst: 100, RefillEvery: 1, MaxInflight: 2},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t1, err := g.Admit("alice")
	if err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	if _, err = g.Admit("alice"); err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	_, err = g.Admit("alice")
	q, ok := IsQuota(err)
	if !ok {
		t.Fatalf("admit 3: want *QuotaError, got %v", err)
	}
	if q.Inflight != 2 || q.Limit != 2 {
		t.Fatalf("QuotaError = %+v", q)
	}
	if q.RetryCycles%RetryQuantum != 0 || q.RetryCycles == 0 {
		t.Fatalf("RetryCycles %d not quantized", q.RetryCycles)
	}
	// Bob's quota is independent of alice's.
	if _, err := g.Admit("bob"); err != nil {
		t.Fatalf("bob admit: %v", err)
	}
	t1.Done(false, false)
	if _, err := g.Admit("alice"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

func TestQuarantineAndProbe(t *testing.T) {
	g, err := New(Config{
		Table:           testTable(t),
		Limits:          Limits{Burst: 100, RefillEvery: 1, MaxInflight: 100},
		QuarantineAfter: 3,
		Window:          8,
		ProbeEvery:      4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Three detected completions trip the breaker.
	for i := 0; i < 3; i++ {
		tk, err := g.Admit("alice")
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		tk.Done(true, false)
	}
	if !quarantined(g, "alice") {
		t.Fatal("alice not quarantined after 3 detections")
	}
	// Quarantine rejects with typed error and a probe countdown.
	_, err = g.Admit("alice")
	qe, ok := IsQuarantined(err)
	if !ok {
		t.Fatalf("want *QuarantinedError, got %v", err)
	}
	if qe.ProbeIn != 3 {
		t.Fatalf("ProbeIn = %d, want 3", qe.ProbeIn)
	}
	// Bob is unaffected.
	if _, err := g.Admit("bob"); err != nil {
		t.Fatalf("bob admit during alice quarantine: %v", err)
	}
	// Arrivals 2..3 still rejected; the 4th is the probe.
	for i := 0; i < 2; i++ {
		if _, err := g.Admit("alice"); !isQuarantinedErr(err) {
			t.Fatalf("pre-probe arrival %d: %v", i, err)
		}
	}
	probe, err := g.Admit("alice")
	if err != nil {
		t.Fatalf("probe admit: %v", err)
	}
	if !probe.probe {
		t.Fatal("4th arrival not marked as probe")
	}
	// A dirty probe keeps the quarantine.
	probe.Done(true, false)
	if !quarantined(g, "alice") {
		t.Fatal("quarantine lifted by dirty probe")
	}
	// Next probe cycle: 4 arrivals, last is a probe; clean → readmitted.
	var probe2 *Ticket
	for i := 0; i < 4; i++ {
		tk, err := g.Admit("alice")
		if err == nil {
			probe2 = tk
		}
	}
	if probe2 == nil || !probe2.probe {
		t.Fatalf("no second probe admitted (ticket %v)", probe2)
	}
	probe2.Done(false, false)
	if quarantined(g, "alice") {
		t.Fatal("quarantine not lifted by clean probe")
	}
	if _, err := g.Admit("alice"); err != nil {
		t.Fatalf("post-readmission admit: %v", err)
	}
	st := g.Stats().Get("alice")
	if st.Quarantines != 1 || st.Probes != 2 || st.Readmissions != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func isQuarantinedErr(err error) bool {
	_, ok := IsQuarantined(err)
	return ok
}

func TestDrain(t *testing.T) {
	g, err := New(Config{Table: testTable(t)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tk, err := g.Admit("alice")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if !g.StartDrain() {
		t.Fatal("first StartDrain returned false")
	}
	if g.StartDrain() {
		t.Fatal("second StartDrain returned true")
	}
	if !g.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}
	if _, err := g.Admit("alice"); !IsDraining(err) {
		t.Fatalf("post-drain admit: want *DrainingError, got %v", err)
	}
	// Outstanding tickets still complete.
	tk.Done(false, false)
	st := g.Stats().Get("alice")
	if st.Completed != 1 || st.Drained != 1 {
		t.Fatalf("counters = %+v", st)
	}
}

func TestDoneIdempotent(t *testing.T) {
	g, err := New(Config{Table: testTable(t), Limits: Limits{MaxInflight: 1, Burst: 100, RefillEvery: 1}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tk, err := g.Admit("alice")
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	tk.Done(false, false)
	tk.Done(false, false)
	if st := g.Stats().Get("alice"); st.Completed != 1 {
		t.Fatalf("Completed = %d after double Done", st.Completed)
	}
	if _, err := g.Admit("alice"); err != nil {
		t.Fatalf("inflight not released exactly once: %v", err)
	}
}

func TestRetryHints(t *testing.T) {
	if q := QuantizeRetryCycles(0); q != RetryQuantum {
		t.Fatalf("QuantizeRetryCycles(0) = %d", q)
	}
	if q := QuantizeRetryCycles(1); q != RetryQuantum {
		t.Fatalf("QuantizeRetryCycles(1) = %d", q)
	}
	if q := QuantizeRetryCycles(RetryQuantum + 1); q != 2*RetryQuantum {
		t.Fatalf("QuantizeRetryCycles(quantum+1) = %d", q)
	}
	if s := RetrySeconds(RetryQuantum); s != 1 {
		t.Fatalf("RetrySeconds(quantum) = %d", s)
	}
	// The hint extractor sees through every hinted rejection type.
	hint := &RetryHintError{Cycles: 3 * RetryQuantum, Cause: &QuotaError{Tenant: "a"}}
	if got, ok := RetryAfterCycles(hint); !ok || got != 3*RetryQuantum {
		t.Fatalf("RetryAfterCycles(hint) = %d,%v", got, ok)
	}
	if got := hint.Error(); got != "busy retry-after-cycles=3145728" {
		t.Fatalf("hint rendering = %q", got)
	}
	if _, ok := RetryAfterCycles(&DrainingError{}); ok {
		t.Fatal("RetryAfterCycles matched a drain error")
	}
}
