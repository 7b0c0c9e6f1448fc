package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvfsched/internal/batch"
	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/report"
	"dvfsched/internal/trace"
	"dvfsched/internal/workload"
)

// newTestServer starts an httptest server around a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doJSON posts a JSON body and decodes a JSON reply.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func batchRecords(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 10 + rng.Float64()*500}
	}
	return recs
}

func TestPlanMatchesDirectScheduler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	recs := batchRecords(24, 1)

	var resp PlanResponse
	code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{
		PlatformSpec: PlatformSpec{Cores: 4, Platform: "table2", Re: 0.1, Rt: 0.4},
		Tasks:        recs,
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}

	// Direct in-process oracle.
	tasks := make(model.TaskSet, len(recs))
	for i, r := range recs {
		tasks[i] = r.Task()
	}
	sched, err := core.New(model.CostParams{Re: 0.1, Rt: 0.4},
		platform.Homogeneous(4, platform.TableII(), platform.Ideal{}))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanBatch(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	_, _, want := plan.Cost()
	if resp.TotalCost != want {
		t.Fatalf("service cost %v != direct cost %v", resp.TotalCost, want)
	}
	if resp.Cached {
		t.Fatal("first request reported cached")
	}

	// The returned plan document must round-trip and re-cost
	// identically.
	got, err := readPlanDoc(resp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan document cost %v != %v", got, want)
	}
}

// readPlanDoc re-parses the self-contained plan JSON and evaluates its
// cost.
func readPlanDoc(raw json.RawMessage) (float64, error) {
	plan, err := batch.ReadPlanJSON(bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	_, _, total := plan.Cost()
	return total, nil
}

func TestPlanCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := PlanRequest{Tasks: batchRecords(10, 2)}

	var first, second PlanResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/plan", req, &first); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/plan", req, &second); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first=%v second=%v", first.Cached, second.Cached)
	}
	if first.TotalCost != second.TotalCost {
		t.Fatalf("cache changed the answer: %v vs %v", first.TotalCost, second.TotalCost)
	}
	// Same workload, different task order: still a hit.
	perm := append([]trace.Record(nil), req.Tasks...)
	perm[0], perm[len(perm)-1] = perm[len(perm)-1], perm[0]
	var third PlanResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: perm}, &third); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !third.Cached {
		t.Fatal("permuted workload missed the cache")
	}
	snap := s.Registry().Snapshot()
	if snap.Counters[obs.ServerPlanCacheHits] != 2 || snap.Counters[obs.ServerPlans] != 1 {
		t.Fatalf("cache counters: %+v", snap.Counters)
	}
}

// TestPlanCacheRefusesUnbatchable caches a batch workload, then posts
// the same tasks with an arrival, a deadline, or the interactive flag.
// The cache key covers only what the planner reads, so each variant
// hashes to the cached entry; each must still get the planner's 400,
// as it does on a cold cache.
func TestPlanCacheRefusesUnbatchable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := []trace.Record{{ID: 0, Cycles: 5}, {ID: 1, Cycles: 7}}
	var first PlanResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: base}, &first); code != http.StatusOK {
		t.Fatalf("base workload: status %d", code)
	}
	deadline := 9.0
	for name, edit := range map[string]func(*trace.Record){
		"arrival":     func(r *trace.Record) { r.Arrival = 3 },
		"deadline":    func(r *trace.Record) { r.Deadline = &deadline },
		"interactive": func(r *trace.Record) { r.Interactive = true },
	} {
		tasks := append([]trace.Record(nil), base...)
		edit(&tasks[1])
		var eresp errorResponse
		code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: tasks}, &eresp)
		if code != http.StatusBadRequest || eresp.Error.Code != "invalid_workload" {
			t.Errorf("%s: status %d, error %+v; want 400 invalid_workload", name, code, eresp.Error)
		}
	}
}

// TestPlanRefusesOverflowingTotals posts a workload whose costs
// overflow float64. JSON cannot carry the infinite totals, so the plan
// must be refused with 400, on a repeat too, and never cached.
func TestPlanRefusesOverflowingTotals(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"tasks":[{"id":1,"cycles":1e308}]}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "overflow") {
			t.Fatalf("request %d: status %d, body %s; want 400 naming the overflow", i+1, resp.StatusCode, raw)
		}
	}
	if n := s.planner.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after refused plans", n)
	}
	if snap := s.Registry().Snapshot(); snap.Counters[obs.ServerPlans] != 0 || snap.Counters[obs.ServerPlanCacheHits] != 0 {
		t.Fatalf("counters after refused plans: %+v", snap.Counters)
	}
}

func TestPlanRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body any
	}{
		{"empty tasks", PlanRequest{}},
		{"bad platform", PlanRequest{PlatformSpec: PlatformSpec{Platform: "zen4"}, Tasks: batchRecords(2, 3)}},
		{"negative cycles", PlanRequest{Tasks: []trace.Record{{ID: 0, Cycles: -1}}}},
		{"online task", PlanRequest{Tasks: []trace.Record{{ID: 0, Cycles: 5, Arrival: 3}}}},
		{"duplicate ids", PlanRequest{Tasks: []trace.Record{{ID: 0, Cycles: 5}, {ID: 0, Cycles: 6}}}},
		{"unknown field", map[string]any{"tasks": []trace.Record{{ID: 0, Cycles: 5}}, "bogus": 1}},
	}
	for _, tc := range cases {
		var eresp errorResponse
		if code := doJSON(t, "POST", ts.URL+"/v1/plan", tc.body, &eresp); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (error %q)", tc.name, code, eresp.Error)
		}
	}
}

// withPlanSlots gives s's planner the given slot and waiting-place
// counts; call it before the first plan request.
func withPlanSlots(s *Server, slots, waiting int) {
	s.planner.slots = make(chan struct{}, slots)
	s.planner.maxWaiting = int32(waiting)
}

// TestPlanBackpressure holds the only plan slot and fills the only
// waiting place: the next miss is shed with 429, the waiter answers
// 503 at its deadline without planning, and the held plan aborts on its
// own expired deadline once released.
func TestPlanBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 300 * time.Millisecond})
	withPlanSlots(s, 1, 1)
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	// Runs before the server's cleanup, which would wait forever for a
	// plan a failed check left held.
	t.Cleanup(unblock)
	s.planner.onComputeStart = func(ctx context.Context) {
		started <- struct{}{}
		<-release
		// The held plan's deadline passed before the release, but the
		// timer that ends its context can lag on a loaded machine.
		<-ctx.Done()
	}
	type answer struct {
		status int
		code   string
	}
	post := func(seed int64) <-chan answer {
		done := make(chan answer, 1)
		go func() {
			var eresp errorResponse
			code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: batchRecords(2, seed)}, &eresp)
			done <- answer{code, eresp.Error.Code}
		}()
		return done
	}

	held := post(4)
	<-started
	waiter := post(5)
	deadline := time.Now().Add(2 * time.Second)
	for s.planner.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never waited for the slot")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := <-post(6); got.status != http.StatusTooManyRequests || got.code != "busy" {
		t.Fatalf("overflow request got %+v, want 429 busy", got)
	}
	select {
	case <-started:
		t.Fatal("a second plan started while the slot was held")
	case got := <-waiter:
		if got.status != http.StatusServiceUnavailable || got.code != "canceled" {
			t.Fatalf("waiting request got %+v, want 503 canceled at its deadline", got)
		}
	}
	// Release only now: released at the held request's own deadline, the
	// waiter could have taken the slot first.
	unblock()
	if got := <-held; got.status != http.StatusServiceUnavailable || got.code != "canceled" {
		t.Fatalf("held request got %+v, want 503 canceled", got)
	}
	snap := s.Registry().Snapshot()
	if snap.Counters[obs.ServerRejected] < 1 {
		t.Fatal("rejected counter did not move")
	}
	if got := snap.Counters[obs.ServerPlansAborted]; got != 1 {
		t.Fatalf("plans_aborted = %v, want 1 (only the held plan ran)", got)
	}
	if got := snap.Gauges[obs.ServerPlanQueueDepth]; got != 0 {
		t.Fatalf("queue depth %v after every request answered, want 0", got)
	}
}

// TestPlanSlotsBoundConcurrency sends four distinct misses at once to a
// planner with one slot: all are served, and no two plans are ever
// inside the planner together.
func TestPlanSlotsBoundConcurrency(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	withPlanSlots(s, 1, 4)
	const n = 4
	var inside, entered atomic.Int32
	s.planner.onComputeStart = func(context.Context) {
		if inside.Add(1) > 1 {
			t.Error("two plans inside the planner at once")
		}
		if entered.Add(1) == 1 {
			// Hold the first plan until every other request waits for
			// its slot, so the four are provably concurrent.
			deadline := time.Now().Add(2 * time.Second)
			for s.planner.waiting.Load() < n-1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := s.planner.waiting.Load(); got != n-1 {
				t.Errorf("%d requests waiting behind the first plan, want %d", got, n-1)
			}
		}
		time.Sleep(5 * time.Millisecond)
		inside.Add(-1)
	}
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(seed int64) {
			codes <- doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: batchRecords(3, seed)}, nil)
		}(int64(10 + i))
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("concurrent miss answered %d, want 200", code)
		}
	}
	if got := s.Registry().Snapshot().Counters[obs.ServerPlans]; got != n {
		t.Fatalf("plans = %v, want %d", got, n)
	}
}

func sessionTrace(t *testing.T, seed int64) model.TaskSet {
	t.Helper()
	judge := workload.DefaultJudgeConfig()
	judge.Interactive, judge.NonInteractive, judge.Duration = 150, 25, 45
	tasks, err := judge.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tasks.ByArrival()
	return tasks
}

// TestSessionLifecycle drives a full session: create, submit in
// batches, stream events, drain via DELETE, and cross-check that the
// streamed trace replays to the reported final cost.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 4}, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if info.ID == "" {
		t.Fatal("no session ID")
	}
	base := ts.URL + "/v1/sessions/" + info.ID

	tasks := sessionTrace(t, 99)
	for start := 0; start < len(tasks); start += 20 {
		end := start + 20
		if end > len(tasks) {
			end = len(tasks)
		}
		recs := make([]trace.Record, 0, end-start)
		for _, task := range tasks[start:end] {
			recs = append(recs, trace.FromTask(task))
		}
		var sub SubmitResponse
		if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{Tasks: recs}, &sub); code != http.StatusOK {
			t.Fatalf("submit status %d", code)
		}
		if sub.Accepted != len(recs) {
			t.Fatalf("accepted %d != %d", sub.Accepted, len(recs))
		}
	}

	var status SessionInfo
	if code := doJSON(t, "GET", base, nil, &status); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if status.Submitted != len(tasks) {
		t.Fatalf("submitted %d != %d", status.Submitted, len(tasks))
	}

	var drain DrainResponse
	if code := doJSON(t, "DELETE", base, nil, &drain); code != http.StatusOK {
		t.Fatalf("delete status %d", code)
	}
	if drain.Tasks != len(tasks) {
		t.Fatalf("drained %d tasks, submitted %d", drain.Tasks, len(tasks))
	}
	if drain.Policy != "lmc" {
		t.Fatalf("policy %q", drain.Policy)
	}

	// The tombstone keeps the complete trace readable: replay it.
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := obs.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report.TimelineFromEvents(events); err != nil {
		t.Fatalf("trace does not replay: %v", err)
	}
	reg := obs.NewRegistry()
	sink := obs.NewMetricsSink(reg)
	for _, ev := range events {
		sink.Emit(ev)
	}
	snap := reg.Snapshot()
	energy := snap.Counters["sim.energy_j"]
	turnaround := snap.Histograms["sim.turnaround_s"].Sum
	replayCost := 0.1*energy + 0.4*turnaround
	if math.Abs(replayCost-drain.TotalCost) > 1e-6*math.Abs(drain.TotalCost) {
		t.Fatalf("replayed cost %v != reported %v", replayCost, drain.TotalCost)
	}
	if snap.Counters["sim.tasks.completed"] != float64(len(tasks)) {
		t.Fatalf("trace completes %v tasks, want %d", snap.Counters["sim.tasks.completed"], len(tasks))
	}

	// Second DELETE purges; the session then 404s.
	if code := doJSON(t, "DELETE", base, nil, nil); code != http.StatusNoContent {
		t.Fatalf("purge status %d", code)
	}
	if code := doJSON(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after purge %d", code)
	}
}

func TestSessionRejectsStaleArrivalsAndDrainedSubmits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 1}, &info)
	base := ts.URL + "/v1/sessions/" + info.ID

	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 0, Cycles: 5, Arrival: 10}},
	}, nil); code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	var eresp errorResponse
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 3}},
	}, &eresp); code != http.StatusBadRequest || !strings.Contains(eresp.Error.Message, "before the session clock") {
		t.Fatalf("stale arrival: status %d error %+v", code, eresp.Error)
	}
	if code := doJSON(t, "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("drain status %d", code)
	}
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 2, Cycles: 5, Arrival: 1e6}},
	}, &eresp); code != http.StatusConflict || eresp.Error.Code != "session_drained" {
		t.Fatalf("submit after drain: status %d error %+v", code, eresp.Error)
	}
}

// TestSessionRefusedFarFutureSubmitLeavesNoTrace submits a task whose
// arrival is past the engine's max time. The 400 must leave nothing
// behind: the same ID then submits at a reachable arrival, and the
// drain succeeds with both accepted tasks.
func TestSessionRefusedFarFutureSubmitLeavesNoTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 1}, &info)
	base := ts.URL + "/v1/sessions/" + info.ID

	submit := func(id int, arrival float64, out any) int {
		return doJSON(t, "POST", base+"/tasks", SubmitRequest{Tasks: []trace.Record{{ID: id, Cycles: 5, Arrival: arrival}}}, out)
	}
	if code := submit(1, 1, nil); code != http.StatusOK {
		t.Fatalf("submit 1: status %d", code)
	}
	var eresp errorResponse
	if code := submit(2, 2e9, &eresp); code != http.StatusBadRequest || !strings.Contains(eresp.Error.Message, "max time") {
		t.Fatalf("far-future submit: status %d error %+v", code, eresp.Error)
	}
	if code := submit(2, 5, &eresp); code != http.StatusOK {
		t.Fatalf("resubmit of the refused ID: status %d error %+v", code, eresp.Error)
	}
	var drain DrainResponse
	if code := doJSON(t, "DELETE", base, nil, &drain); code != http.StatusOK || drain.Tasks != 2 {
		t.Fatalf("drain: status %d, %d tasks; want 200 with 2", code, drain.Tasks)
	}
}

// TestSessionFailedDrainKeepsAcceptedTrace drains a session holding a
// task that cannot finish before the engine's 1e9 s guard. The DELETE
// answers 409, but the session accepted tasks, so it stays as a
// drained tombstone: status reports drained, the events of the
// accepted tasks stay readable, a submit answers 409 session_drained,
// and the next DELETE purges it. A session that accepted nothing is
// purged by the failed drain itself.
func TestSessionFailedDrainKeepsAcceptedTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 1}, &info)
	base := ts.URL + "/v1/sessions/" + info.ID

	for _, rec := range []trace.Record{{ID: 1, Cycles: 1}, {ID: 2, Cycles: 1e10}} {
		if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{Tasks: []trace.Record{rec}}, nil); code != http.StatusOK {
			t.Fatalf("submit task %d: status %d", rec.ID, code)
		}
	}
	var eresp errorResponse
	if code := doJSON(t, "DELETE", base, nil, &eresp); code != http.StatusConflict || !strings.Contains(eresp.Error.Message, "exceeded max time") {
		t.Fatalf("drain: status %d error %+v; want 409 exceeded max time", code, eresp.Error)
	}
	var st SessionInfo
	if code := doJSON(t, "GET", base, nil, &st); code != http.StatusOK || !st.Drained || st.Submitted != 2 {
		t.Fatalf("status after failed drain: %d %+v; want 200, drained, 2 submitted", code, st)
	}
	resp, err := http.Get(base + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events after failed drain: status %d err %v", resp.StatusCode, err)
	}
	completed := false
	for _, ev := range events {
		if ev.Kind == obs.KindComplete && ev.Task == 1 {
			completed = true
		}
	}
	if !completed {
		t.Fatalf("trace of %d events lost task 1's completion", len(events))
	}
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 3, Cycles: 1, Arrival: 1e6}},
	}, &eresp); code != http.StatusConflict || eresp.Error.Code != "session_drained" {
		t.Fatalf("submit after failed drain: status %d error %+v", code, eresp.Error)
	}
	if code := doJSON(t, "DELETE", base, nil, nil); code != http.StatusNoContent {
		t.Fatalf("purge after failed drain: status %d, want 204", code)
	}
	if code := doJSON(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("status after purge: %d, want 404", code)
	}

	// An empty session's drain fails too, and there is nothing to keep.
	doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 1}, &info)
	base = ts.URL + "/v1/sessions/" + info.ID
	if code := doJSON(t, "DELETE", base, nil, nil); code != http.StatusConflict {
		t.Fatalf("drain of an empty session: status %d, want 409", code)
	}
	if code := doJSON(t, "GET", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("empty session after failed drain: status %d, want 404", code)
	}
}

// TestConcurrentSessions hammers several sessions from several
// goroutines; run under -race this is the shard-isolation proof.
func TestConcurrentSessions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const nSessions = 4
	const perSession = 3 // goroutines per session submitting disjoint ID ranges

	var wg sync.WaitGroup
	errs := make(chan error, nSessions*perSession)
	for si := 0; si < nSessions; si++ {
		var info SessionInfo
		if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 2}, &info); code != http.StatusCreated {
			t.Fatalf("create status %d", code)
		}
		base := ts.URL + "/v1/sessions/" + info.ID
		for g := 0; g < perSession; g++ {
			wg.Add(1)
			go func(base string, g int) {
				defer wg.Done()
				// Monotone arrivals per goroutine; the shard may bounce
				// some as stale versus another goroutine's progress —
				// that's expected, only transport errors fail the test.
				for i := 0; i < 10; i++ {
					recs := []trace.Record{{ID: g*1000 + i, Cycles: 1 + float64(i), Arrival: float64(i)}}
					body, _ := json.Marshal(SubmitRequest{Tasks: recs})
					resp, err := http.Post(base+"/tasks", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest &&
						resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("submit status %d", resp.StatusCode)
						return
					}
				}
			}(base, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	summaries := s.DrainAll(context.Background())
	if len(summaries) == 0 {
		t.Fatal("DrainAll drained nothing")
	}
	for _, sum := range summaries {
		if sum.Err != nil {
			t.Fatalf("drain %s: %v", sum.ID, sum.Err)
		}
	}
}

// TestDrainAllCompletesPendingWork verifies shutdown drains without
// dropping tasks.
func TestDrainAllCompletesPendingWork(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var info SessionInfo
	doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 2}, &info)
	base := ts.URL + "/v1/sessions/" + info.ID

	// Tasks arriving far apart: after submit, most work is pending.
	recs := make([]trace.Record, 10)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 100, Arrival: float64(i * 10)}
	}
	var sub SubmitResponse
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{Tasks: recs}, &sub); code != http.StatusOK {
		t.Fatalf("submit status %d", code)
	}
	if sub.Pending == 0 {
		t.Fatal("expected pending work before shutdown")
	}
	summaries := s.DrainAll(context.Background())
	if len(summaries) != 1 || summaries[0].Err != nil {
		t.Fatalf("summaries: %+v", summaries)
	}
	if summaries[0].Tasks != len(recs) {
		t.Fatalf("drain completed %d tasks, submitted %d", summaries[0].Tasks, len(recs))
	}
	snap := s.Registry().Snapshot()
	if snap.Gauges[obs.ServerSessionsOpen] != 0 {
		t.Fatalf("open-sessions gauge %v after drain", snap.Gauges[obs.ServerSessionsOpen])
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hz healthzResponse
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &hz); code != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, hz)
	}
	doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: batchRecords(4, 6)}, nil)
	var snap obs.Snapshot
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Counters[obs.ServerRequests] < 2 {
		t.Fatalf("requests counter %v", snap.Counters[obs.ServerRequests])
	}
	if snap.Counters[obs.ServerPlans] != 1 {
		t.Fatalf("plans counter %v", snap.Counters[obs.ServerPlans])
	}
}

// TestPanicRecovery routes a panicking handler through the middleware.
func TestPanicRecovery(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d", rec.Code)
	}
	if got := s.Registry().Snapshot().Counters[obs.ServerPanics]; got != 1 {
		t.Fatalf("panics counter %v", got)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v.(int) != 1 {
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Fatalf("len %d", c.len())
	}
	c.put("a", 9)
	if v, _ := c.get("a"); v.(int) != 9 {
		t.Fatal("refresh did not update value")
	}
	disabled := newLRUCache(0)
	disabled.put("x", 1)
	if _, ok := disabled.get("x"); ok {
		t.Fatal("disabled cache stored a value")
	}
}
