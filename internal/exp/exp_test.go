package exp

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/httpd"
	"repro/internal/kvstore"
	"repro/internal/metrics"
)

func quick() Runner { return Runner{Quick: true} }

var (
	quickAllOnce sync.Once
	quickAll     []*Result
	quickAllErr  error
)

// runAllQuick runs every experiment in quick mode, in order, as
// sdrad-report does — once per test binary: every caller gets the same
// results, which it must not modify.
func runAllQuick(t *testing.T) []*Result {
	t.Helper()
	quickAllOnce.Do(func() {
		for _, id := range IDs() {
			res, err := quick().Run(id)
			if err != nil {
				quickAllErr = err
				return
			}
			quickAll = append(quickAll, res)
		}
	})
	if quickAllErr != nil {
		t.Fatal(quickAllErr)
	}
	return quickAll
}

// rows returns tb's data rows as its Markdown rendering prints them.
func rows(tb *metrics.Table) [][]string {
	var out [][]string
	for _, line := range strings.Split(tb.Markdown(), "\n") {
		if strings.HasPrefix(line, "| ") {
			out = append(out, strings.Split(strings.TrimSuffix(line[2:], " |"), " | "))
		}
	}
	return out[2:] // the header and separator lines
}

func TestIDsAndClaims(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("IDs = %v", ids)
	}
	for _, e := range registry() {
		if e.claim == "" {
			t.Errorf("%s has no paper claim", e.id)
		}
	}
	if _, err := quick().Run("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunAllProducesTables(t *testing.T) {
	results := runAllQuick(t)
	if len(results) != 13 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Table == nil || r.Table.NumRows() == 0 {
			t.Errorf("%s: empty table", r.ID)
		}
		if r.Claim == "" || r.ID == "" {
			t.Errorf("incomplete result: %+v", r)
		}
		if out := r.Table.String(); !strings.Contains(out, r.ID) {
			t.Errorf("%s: table title should carry the experiment id:\n%s", r.ID, out)
		}
		if md := r.Table.Markdown(); !strings.Contains(md, "|") {
			t.Errorf("%s: markdown rendering broken", r.ID)
		}
	}
}

// parseOverhead extracts "2.74%" -> 2.74 from an E1 row.
func parseOverhead(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("bad overhead cell %q", cell)
	}
	return v
}

func TestE1OverheadShape(t *testing.T) {
	res, err := quick().Run("E1")
	if err != nil {
		t.Fatal(err)
	}
	e1rows := rows(res.Table)
	if len(e1rows) != 4 {
		t.Fatalf("rows = %d", len(e1rows))
	}
	for _, row := range e1rows {
		oh := parseOverhead(t, row[3])
		if strings.Contains(row[0], "sandbox") {
			// §IV: conventional process isolation costs far more than the
			// paper's 2–4% MPK overhead.
			if oh < 20 {
				t.Errorf("%s: overhead %.2f%%, want >> SDRaD's", row[0], oh)
			}
			continue
		}
		// Paper band is 2–4%; accept a slightly wider reproduction band.
		if oh < 0.5 || oh > 8 {
			t.Errorf("%s: overhead %.2f%% outside [0.5, 8]", row[0], oh)
		}
	}
}

func TestE1HelpersDirect(t *testing.T) {
	n, err := KVOverhead(kvstore.ModeNative, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := KVOverhead(kvstore.ModeSDRaD, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s <= n {
		t.Errorf("sdrad (%v) should cost more than native (%v)", s, n)
	}
	hn, err := HTTPOverhead(httpd.ModeNative, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := HTTPOverhead(httpd.ModeSDRaD, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hs <= hn {
		t.Errorf("httpd: sdrad (%v) should cost more than native (%v)", hs, hn)
	}
}

func TestE2RewindMicroseconds(t *testing.T) {
	rw, err := MeasuredRewind(8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's 3.5µs; require the same order of magnitude.
	if rw < time.Microsecond || rw > 10*time.Microsecond {
		t.Errorf("rewind = %v, want ≈3.5µs", rw)
	}
}

func TestE3ShapeMatchesPaperArithmetic(t *testing.T) {
	res, err := quick().Run("E3")
	if err != nil {
		t.Fatal(err)
	}
	// The 3-faults/yr row: restart must violate, rewind must meet.
	for _, row := range rows(res.Table) {
		if row[0] == "3" {
			if row[5] != "false / true" {
				t.Errorf("3 faults/yr verdict = %q, want 'false / true'", row[5])
			}
			return
		}
	}
	t.Error("3 faults/yr row missing")
}

func TestE4ContainmentShape(t *testing.T) {
	native, err := RunContainment(kvstore.ModeNative, 3000, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	sdrad, err := RunContainment(kvstore.ModeSDRaD, 3000, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sdrad.BenignFailures != 0 {
		t.Errorf("sdrad benign failures = %d, want 0", sdrad.BenignFailures)
	}
	if native.BenignFailures == 0 {
		t.Error("native should drop benign traffic during restarts")
	}
	if sdrad.AttacksContained == 0 || sdrad.Crashes != 0 {
		t.Errorf("sdrad containment: %+v", sdrad)
	}
	if native.Crashes == 0 {
		t.Errorf("native crashes: %+v", native)
	}
}

func TestE6MeasuredRoundTripTiny(t *testing.T) {
	rt, err := MeasuredDomainRoundTrip()
	if err != nil {
		t.Fatal(err)
	}
	// Two WRPKRUs + snapshot ≈ 35ns; must stay well under a syscall.
	if rt <= 0 || rt > 500*time.Nanosecond {
		t.Errorf("domain round trip = %v, want tens of ns", rt)
	}
}

func TestE8CodecShape(t *testing.T) {
	raw, err := MeasureCodec("raw", 4096, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	js, err := MeasureCodec("json", 4096, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if js.WireBytes <= raw.WireBytes {
		t.Errorf("json wire (%d) should exceed raw (%d)", js.WireBytes, raw.WireBytes)
	}
	if js.PerCallTime <= raw.PerCallTime {
		t.Errorf("json call (%v) should cost more than raw (%v)", js.PerCallTime, raw.PerCallTime)
	}
	small, err := MeasureCodec("binary", 16, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.PerCallTime >= raw.PerCallTime {
		t.Error("small payloads should be cheaper than large")
	}
	if _, err := MeasureCodec("bogus", 16, 10, 1); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestRunnerSeedDefaults(t *testing.T) {
	if (Runner{}).seed() != 1 {
		t.Error("default seed")
	}
	if (Runner{Seed: 7}).seed() != 7 {
		t.Error("custom seed ignored")
	}
	if (Runner{Quick: true}).requests(1000) != 100 {
		t.Error("quick scaling")
	}
	if (Runner{}).requests(1000) != 1000 {
		t.Error("full scaling")
	}
}

func TestAblationShapes(t *testing.T) {
	r := quick()
	a1, err := r.Run("A1")
	if err != nil {
		t.Fatal(err)
	}
	// Zeroing must cost more than fast discard, increasingly so with heap
	// size: check the last row's speedup exceeds the first row's.
	if a1rows := rows(a1.Table); len(a1rows) != 4 {
		t.Fatalf("A1 rows = %d", len(a1rows))
	}

	a2, err := r.Run("A2")
	if err != nil {
		t.Fatal(err)
	}
	a2rows := rows(a2.Table)
	// Larger batches must not be slower per request than batch=1.
	if len(a2rows) != 4 {
		t.Fatalf("A2 rows = %d", len(a2rows))
	}

	a3, err := r.Run("A3")
	if err != nil {
		t.Fatal(err)
	}
	if a3.Table.NumRows() != 4 {
		t.Fatalf("A3 rows = %d", a3.Table.NumRows())
	}
}

// TestEveryShapeCheckPasses is the conformance test: every paper-shape
// assertion must hold on a quick run.
func TestEveryShapeCheckPasses(t *testing.T) {
	results := runAllQuick(t)
	for _, res := range results {
		for _, c := range Verify(res) {
			if !c.Pass {
				t.Errorf("%s: %s — %s", res.ID, c.Name, c.Detail)
			}
		}
	}
}

func TestVerifyHelpers(t *testing.T) {
	if c := band("x", 5, 1, 10); !c.Pass {
		t.Error("band in-range failed")
	}
	if c := band("x", 11, 1, 10); c.Pass {
		t.Error("band out-of-range passed")
	}
	if !atLeast("x", 5, 5).Pass || atLeast("x", 4, 5).Pass {
		t.Error("atLeast")
	}
	if !atMost("x", 5, 5).Pass || atMost("x", 6, 5).Pass {
		t.Error("atMost")
	}
	if !isTrue("x", 1).Pass || isTrue("x", 0).Pass {
		t.Error("isTrue")
	}
	if !isFalse("x", 0).Pass || isFalse("x", 1).Pass {
		t.Error("isFalse")
	}
}

func TestS1SensitivityNeverFlips(t *testing.T) {
	res, err := quick().Run("S1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["rewind_flips"] != 0 {
		t.Errorf("rewind verdict flipped %v times across the sweep", res.Metrics["rewind_flips"])
	}
	// The restart crossover exists exactly at the fast-warm-up corner
	// (3 of 9 cells).
	if res.Metrics["restart_meets_count"] != 3 {
		t.Errorf("restart meets target in %v cells, want 3 (fast-warm-up column)", res.Metrics["restart_meets_count"])
	}
	if res.Metrics["min_ratio"] < 1e3 {
		t.Errorf("min restart/rewind ratio = %v, want >= 1e3", res.Metrics["min_ratio"])
	}
	if res.Table.NumRows() != 9 {
		t.Errorf("rows = %d, want 9", res.Table.NumRows())
	}
}
