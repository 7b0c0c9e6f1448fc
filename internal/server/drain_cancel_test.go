package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
)

// TestPlanCancellationAbortsInFlightPlan is the PR's cancellation
// proof: a request context canceled while its plan is in flight
// observably aborts the planning work (the plans_aborted counter fires
// and no plan completes) rather than holding its slot to the end.
func TestPlanCancellationAbortsInFlightPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	started := make(chan struct{})
	s.planner.onComputeStart = func(ctx context.Context) {
		close(started)
		// Hold the plan verifiably in flight until the cancellation has
		// propagated into the job's context, then let planning observe it.
		<-ctx.Done()
	}

	body, err := json.Marshal(PlanRequest{Tasks: batchRecords(24, 2)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected a client-side cancellation error")
	}

	aborts := s.reg.Counter(obs.ServerPlansAborted)
	deadline := time.Now().Add(5 * time.Second)
	for aborts.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("plans_aborted = %v, want >= 1", aborts.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.reg.Counter(obs.ServerPlans).Value(); got != 0 {
		t.Fatalf("plans completed = %v, want 0 after cancellation", got)
	}
}

// TestBeginDrainSheds503 checks the shutdown contract: once a drain
// has begun, new work on both planes is refused with 503 (not 429), so
// load balancers fail over instead of retrying, while reads and the
// drain itself still work.
func TestBeginDrainSheds503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 2}, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 1}},
	}, nil); code != http.StatusOK {
		t.Fatalf("pre-drain submit status %d", code)
	}

	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}

	if code := doJSON(t, "POST", ts.URL+"/v1/plan", PlanRequest{Tasks: batchRecords(4, 1)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("plan during drain: status %d, want 503", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("create during drain: status %d, want 503", code)
	}
	if code := doJSON(t, "POST", base+"/tasks", SubmitRequest{
		Tasks: []trace.Record{{ID: 2, Cycles: 5, Arrival: 2}},
	}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", code)
	}
	// Reads and the drain itself still work: no accepted task is lost.
	if code := doJSON(t, "GET", base, nil, &info); code != http.StatusOK {
		t.Fatalf("status during drain: %d", code)
	}
	var dr DrainResponse
	if code := doJSON(t, "DELETE", base, nil, &dr); code != http.StatusOK {
		t.Fatalf("drain during drain: status %d", code)
	}
	if dr.Tasks != 1 {
		t.Fatalf("drained %d tasks, want 1", dr.Tasks)
	}
}

// TestDrainAllImpliesBeginDrain pins the graceful-shutdown ordering:
// DrainAll itself flips the refuse-new-work switch, so callers cannot
// forget it.
func TestDrainAllImpliesBeginDrain(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.DrainAll(context.Background())
	if !s.Draining() {
		t.Fatal("DrainAll did not begin the drain")
	}
}
