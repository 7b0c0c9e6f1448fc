package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/trace"
)

// newTestShard builds a shard on the default platform.
func newTestShard(t *testing.T) *shard {
	t.Helper()
	spec, params, plat, err := PlatformSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := newShard("s-test", spec, params, plat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.purge)
	return sh
}

// oneTask builds a single-task submission.
func oneTask(id int, cycles, arrival float64) model.TaskSet {
	return model.TaskSet{{ID: id, Cycles: cycles, Arrival: arrival, Deadline: model.NoDeadline}}
}

// TestSessionLockBackpressure puts a session's count of callers
// waiting for its lock at the bound: the next submit and the next
// status are both shed with 429 busy and never reach the engine, and
// the session serves again once the waiters are gone.
func TestSessionLockBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 2}, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	sh, ok := s.sessions.get(info.ID)
	if !ok {
		t.Fatalf("session %s not registered", info.ID)
	}
	base := ts.URL + "/v1/sessions/" + info.ID
	submit := SubmitRequest{Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 1}}}

	sh.waiting.Store(maxSessionWaiters)
	var eresp errorResponse
	if code := doJSON(t, "POST", base+"/tasks", submit, &eresp); code != http.StatusTooManyRequests || eresp.Error.Code != "busy" {
		t.Fatalf("submit past the waiter bound: %d %+v, want 429 busy", code, eresp)
	}
	eresp = errorResponse{}
	if code := doJSON(t, "GET", base, nil, &eresp); code != http.StatusTooManyRequests || eresp.Error.Code != "busy" {
		t.Fatalf("status past the waiter bound: %d %+v, want 429 busy", code, eresp)
	}
	if got := s.Registry().Snapshot().Counters[obs.ServerRejected]; got != 2 {
		t.Fatalf("rejected counter %v, want 2", got)
	}

	sh.waiting.Store(0)
	if code := doJSON(t, "POST", base+"/tasks", submit, nil); code != http.StatusOK {
		t.Fatalf("submit after the waiters left: status %d", code)
	}
	var status SessionInfo
	if code := doJSON(t, "GET", base, nil, &status); code != http.StatusOK || status.Submitted != 1 {
		t.Fatalf("status after the waiters left: %d %+v, want 200 with 1 submitted", code, status)
	}
}

// TestSubmitCanceledWhileWaiting holds a session's lock while a submit
// queues for it, and cancels the submit's context before releasing
// the lock. The submit must return the context error without touching
// the engine: no task counted, no arrival recorded.
func TestSubmitCanceledWhileWaiting(t *testing.T) {
	sh := newTestShard(t)
	if resp, err := sh.submit(context.Background(), oneTask(1, 1, 0), true); err != nil || resp.err != nil {
		t.Fatalf("first submit: %v / %v", err, resp.err)
	}
	events := sh.rec.Len()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	sh.mu.Lock()
	go func() {
		_, err := sh.submit(ctx, oneTask(2, 1, 0), true)
		errc <- err
	}()
	for sh.waiting.Load() == 0 {
		runtime.Gosched()
	}
	cancel()
	sh.mu.Unlock()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("submit canceled while waiting: err %v, want context.Canceled", err)
	}

	resp, err := sh.do(context.Background(), opStatus)
	if err != nil {
		t.Fatal(err)
	}
	if resp.submitted != 1 {
		t.Fatalf("submitted = %d after the canceled submit, want 1", resp.submitted)
	}
	if n := sh.rec.Len(); n != events {
		t.Fatalf("recorder grew from %d to %d events: the canceled submit reached the engine", events, n)
	}
}

// TestPurgedShardRefusesCallers checks a caller that looked a shard up
// before its purge: its submit and its status get ErrSessionGone, and
// the discarded engine records nothing.
func TestPurgedShardRefusesCallers(t *testing.T) {
	sh := newTestShard(t)
	sh.purge()
	if _, err := sh.submit(context.Background(), oneTask(1, 1, 0), true); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("submit after purge: err %v, want ErrSessionGone", err)
	}
	if _, err := sh.do(context.Background(), opStatus); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("status after purge: err %v, want ErrSessionGone", err)
	}
	if n := sh.rec.Len(); n != 0 {
		t.Fatalf("purged engine recorded %d events", n)
	}
}

// TestAbortHandoffIgnoresEndedContext freezes a session for a handoff
// and aborts it with a context that has already ended, as a migration
// whose ship failed on its own deadline does. The unfreeze must land
// anyway, or the session would refuse every submit from then on.
func TestAbortHandoffIgnoresEndedContext(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var info SessionInfo
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", PlatformSpec{Cores: 2}, &info); code != http.StatusCreated {
		t.Fatalf("create status %d", code)
	}
	if _, err := s.HandoffSession(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	tasks := ts.URL + "/v1/sessions/" + info.ID + "/tasks"
	submit := SubmitRequest{Tasks: []trace.Record{{ID: 1, Cycles: 5, Arrival: 1}}}
	if code := doJSON(t, "POST", tasks, submit, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit to a frozen session: status %d, want 503", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.AbortHandoff(ctx, info.ID); err != nil {
		t.Fatalf("abort with an ended context: %v", err)
	}
	if code := doJSON(t, "POST", tasks, submit, nil); code != http.StatusOK {
		t.Fatalf("submit after the abort: status %d, want 200", code)
	}
}

// TestGroupCommitParity is the determinism proof for concurrent
// admission: many goroutines race single-task submissions into one
// shard, and the resulting event trace must be byte-identical to the
// same submissions applied serially — one core session, one Admit per
// submission — in the order they took the session's lock (recovered
// from the arrival events, since every submission carries a distinct
// ID).
func TestGroupCommitParity(t *testing.T) {
	const goroutines, perG = 8, 25
	sh := newTestShard(t)

	// Pre-build every submission and keep a pristine copy: Admit clamps
	// arrivals in place, and the serial replay must start from the
	// original timestamps to face the same clamping decisions.
	type submission struct{ orig, live model.TaskSet }
	subs := make([]submission, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			k := g*perG + i
			arrival := float64(i) * 0.05
			cycles := 0.5 + float64(g)*0.1
			subs[k] = submission{
				orig: oneTask(k+1, cycles, arrival),
				live: oneTask(k+1, cycles, arrival),
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := g*perG + i
				resp, err := sh.submit(context.Background(), subs[k].live, true)
				if err != nil {
					t.Errorf("submit %d: %v", k, err)
					return
				}
				if resp.err != nil {
					t.Errorf("submit %d: session error: %v", k, resp.err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := sh.do(context.Background(), opDrain); err != nil {
		t.Fatal(err)
	}

	got := sh.rec.Events()
	// Recover the admission order: arrival events appear in the exact
	// order the leader applied submissions, and each submission holds
	// one distinct task ID.
	var order []int
	for _, ev := range got {
		if ev.Kind == obs.KindArrival {
			order = append(order, ev.Task-1)
		}
	}
	if len(order) != len(subs) {
		t.Fatalf("recovered %d arrivals, want %d", len(order), len(subs))
	}

	// Serial replay: same platform, same submissions, same order, no
	// concurrency anywhere.
	_, params, plat, err := PlatformSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	sched, err := core.New(params, plat, core.WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range order {
		if err := sess.Admit(context.Background(), subs[k].orig); err != nil {
			t.Fatalf("replay submission %d: %v", k, err)
		}
	}
	if _, err := sess.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := rec.Events()

	if len(got) != len(want) {
		t.Fatalf("trace length: batched %d events, serial %d", len(got), len(want))
	}
	var gb, wb []byte
	for i := range got {
		gb = got[i].AppendJSON(gb[:0])
		wb = want[i].AppendJSON(wb[:0])
		if !bytes.Equal(gb, wb) {
			t.Fatalf("event %d diverges:\nbatched: %s\nserial:  %s", i, gb, wb)
		}
	}
}
