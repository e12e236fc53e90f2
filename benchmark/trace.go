package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names: one per call the replay makes into a layer, plus the
// request span that parents them.
const (
	spanRequest = iota
	spanProtocolRead
	spanGatewayAdmit
	spanHandle
	spanProtocolWrite
	spanGatewayDone
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "protocol.read", "gateway.admit", "handle", "protocol.write", "gateway.done",
}

// span is one timed call: which layer, for which request, caused by
// which span (-1 for a request span), from when to when in nanoseconds
// since the trace began.
type span struct {
	name   uint8
	req    int32
	parent int32
	start  int64
	end    int64
}

// tracer records spans in memory; nothing is written until the run
// ends. A nil tracer records nothing, which is how the untraced replay
// runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name uint8, req, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: int64(time.Since(t.t0))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// selfTimes returns, per span name, the mean self time per request in
// nanoseconds: each span's duration minus the part of it its child
// spans cover. Children of one span never overlap here (the replay is
// one goroutine), so covered time is the sum of their durations.
func selfTimes(spans []span, requests int) [numSpanNames]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	var out [numSpanNames]float64
	if requests == 0 {
		return out
	}
	for i, s := range spans {
		out[s.name] += float64(s.end - s.start - covered[i])
	}
	for i := range out {
		out[i] /= float64(requests)
	}
	return out
}

// traceFileRequests caps how many requests' spans reach the trace
// file; the summary beside them covers every request.
const traceFileRequests = 2000

// traceFile is the document written next to the results.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Requests int                `json:"requests"`
	SelfNS   map[string]float64 `json:"self_ns_per_request"`
	Spans    []traceSpan        `json:"spans"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Request int32  `json:"request"`
	Parent  int32  `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func writeTrace(path, workload string, seed uint64, t *tracer, requests int) error {
	doc := traceFile{Workload: workload, Seed: seed, Requests: requests, SelfNS: make(map[string]float64)}
	for i, v := range selfTimes(t.spans, requests) {
		doc.SelfNS[spanNames[i]] = v
	}
	for i, s := range t.spans {
		if s.req >= traceFileRequests {
			break
		}
		doc.Spans = append(doc.Spans, traceSpan{ID: i, Name: spanNames[s.name], Request: s.req, Parent: s.parent, StartNS: s.start, EndNS: s.end})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
