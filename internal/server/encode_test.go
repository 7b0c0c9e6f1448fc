package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// discardResponseWriter satisfies http.ResponseWriter with no body
// retention, for alloc counting and benchmarks where recording the
// response would dominate the measurement.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func newDiscardResponseWriter() *discardResponseWriter {
	return &discardResponseWriter{h: make(http.Header)}
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponseWriter) WriteHeader(status int)      { w.status = status }

var submitResponseCorpus = []SubmitResponse{
	{},
	{Accepted: 1, Clock: 0.5, Pending: 3},
	{Accepted: 128, Clock: 123.456789, Pending: 0},
	{Accepted: 7, Clock: 1e21, Pending: 42},
	{Accepted: -1, Clock: 1e-7, Pending: -2},
}

func TestAppendSubmitResponseMatchesMarshal(t *testing.T) {
	for _, r := range submitResponseCorpus {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendSubmitResponse(nil, r)
		if !bytes.Equal(got, want) {
			t.Errorf("appendSubmitResponse(%+v):\n got %s\nwant %s", r, got, want)
		}
	}
}

var planResponseCorpus = []PlanResponse{
	{},
	{Plan: json.RawMessage(`null`), Cached: true},
	{
		Plan:           json.RawMessage(`{"assignments":[{"core":0,"task":1}],"cost":2.5}`),
		EnergyCost:     1.25,
		TimeCost:       3.5,
		TotalCost:      4.75,
		Joules:         10.125,
		MakespanS:      2.5,
		TurnaroundSumS: 7.5,
	},
	{
		Plan:           json.RawMessage(`[1,2,3]`),
		EnergyCost:     1e-7,
		TimeCost:       9.99e20,
		TotalCost:      1e21,
		Joules:         math.SmallestNonzeroFloat64,
		MakespanS:      math.MaxFloat64,
		TurnaroundSumS: 1e-300,
		Cached:         true,
	},
}

func TestAppendPlanResponseMatchesMarshal(t *testing.T) {
	for _, r := range planResponseCorpus {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := appendPlanResponse(nil, r)
		if !bytes.Equal(got, want) {
			t.Errorf("appendPlanResponse(%+v):\n got %s\nwant %s", r, got, want)
		}
	}
}

// TestAppendersZeroAlloc pins the append framing at zero allocations
// when the destination buffer has capacity — the property the pooled
// writers rely on.
func TestAppendersZeroAlloc(t *testing.T) {
	sub := SubmitResponse{Accepted: 64, Clock: 123.456, Pending: 7}
	plan := planResponseCorpus[2]
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		buf = appendSubmitResponse(buf[:0], sub)
	}); n != 0 {
		t.Errorf("appendSubmitResponse: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = appendPlanResponse(buf[:0], plan)
	}); n != 0 {
		t.Errorf("appendPlanResponse: %v allocs/op, want 0", n)
	}
}

// TestPlanCacheHitResponseParity checks the pre-encoded cache-hit body
// carries exactly the computed response with cached flipped to true.
func TestPlanCacheHitResponseParity(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body, err := json.Marshal(PlanRequest{Tasks: benchTasks(8)})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		s.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("plan: %d %s", w.Code, w.Body)
		}
		return w
	}
	miss, hit := post(), post()
	var missResp, hitResp PlanResponse
	if err := json.Unmarshal(miss.Body.Bytes(), &missResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(hit.Body.Bytes(), &hitResp); err != nil {
		t.Fatal(err)
	}
	if missResp.Cached || !hitResp.Cached {
		t.Fatalf("cached flags: miss %v hit %v, want false/true", missResp.Cached, hitResp.Cached)
	}
	missResp.Cached = true
	hitResp.Plan, missResp.Plan = nil, nil
	if !reflect.DeepEqual(missResp, hitResp) {
		t.Fatalf("hit response diverges from computed response:\nmiss %+v\nhit  %+v", missResp, hitResp)
	}
	var missPlan, hitPlan any
	if err := json.Unmarshal(json.RawMessage(miss.Body.Bytes()), &missPlan); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(json.RawMessage(hit.Body.Bytes()), &hitPlan); err != nil {
		t.Fatal(err)
	}
}

// TestPlanCacheHitAllocs pins the whole cache-hit request path —
// one-pass decode, canonical hash, cache lookup, pre-encoded write —
// to a fixed allocation budget so regressions that reintroduce
// per-request reflection or marshaling fail loudly.
func TestPlanCacheHitAllocs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	body, err := json.Marshal(PlanRequest{Tasks: benchTasks(8)})
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", rd)
	w := newDiscardResponseWriter()
	// Warm the cache (first request computes).
	s.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("warmup status %d", w.status)
	}
	n := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		s.ServeHTTP(w, req)
	})
	// The remaining allocations are request plumbing (middleware,
	// context), the decoded TaskSet and the key string — decoding and
	// encoding allocate nothing else. Pinned at the measured 16 plus
	// slack of 4; the reflection decoder cost 36.
	const maxAllocs = 20
	if n > maxAllocs {
		t.Errorf("plan cache hit: %v allocs/op, want <= %d", n, maxAllocs)
	}
}
