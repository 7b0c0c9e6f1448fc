package server

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// newTestShard builds a shard on the default platform with a fresh
// batch-size histogram, returning both.
func newTestShard(t *testing.T, queueDepth int) (*shard, *obs.Histogram) {
	t.Helper()
	spec, params, plat, err := PlatformSpec{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	hist := obs.NewRegistry().Histogram(obs.ServerSessionBatchSize, batchSizeBuckets)
	sh, err := newShard("s-test", spec, params, plat, queueDepth, hist)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.purge)
	return sh, hist
}

// oneTask builds a single-task submission.
func oneTask(id int, cycles, arrival float64) model.TaskSet {
	return model.TaskSet{{ID: id, Cycles: cycles, Arrival: arrival, Deadline: model.NoDeadline}}
}

// TestGroupCommitCoalesces stages five submissions in the intake ring
// before delivering one wakeup, so the leader must admit all five in a
// single flush: every submitter gets its reply, the results are
// identical to five serial submissions, and the batch-size histogram
// records one batch of five.
func TestGroupCommitCoalesces(t *testing.T) {
	sh, hist := newTestShard(t, 64)
	const n = 5
	reqs := make([]*submitReq, n)
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		req := submitReqPool.Get().(*submitReq)
		req.ctx, req.tasks, req.clamp = context.Background(), oneTask(i+1, 1, float64(i)), false
		reqs[i] = req
		sh.intake = append(sh.intake, req)
	}
	sh.mu.Unlock()
	sh.kick <- struct{}{}
	for i, req := range reqs {
		resp := <-req.reply
		if resp.err != nil {
			t.Fatalf("submission %d: %v", i, resp.err)
		}
		if resp.submitted != i+1 {
			t.Fatalf("submission %d: submitted = %d, want %d", i, resp.submitted, i+1)
		}
	}
	snap := hist.Snapshot()
	if snap.Count != 1 || snap.Sum != n {
		t.Fatalf("batch histogram: count %d sum %v, want one batch of %d", snap.Count, snap.Sum, n)
	}
}

// TestGroupCommitFlushBeforeControl stages submissions without any
// wakeup and then issues a status request: the leader must flush the
// intake before answering, so the reply counts every staged task.
func TestGroupCommitFlushBeforeControl(t *testing.T) {
	sh, _ := newTestShard(t, 64)
	const n = 3
	reqs := make([]*submitReq, n)
	sh.mu.Lock()
	for i := 0; i < n; i++ {
		req := submitReqPool.Get().(*submitReq)
		req.ctx, req.tasks, req.clamp = context.Background(), oneTask(100+i, 1, 0), true
		reqs[i] = req
		sh.intake = append(sh.intake, req)
	}
	sh.mu.Unlock()
	resp, err := sh.do(context.Background(), shardReq{op: opStatus})
	if err != nil {
		t.Fatal(err)
	}
	if resp.submitted != n {
		t.Fatalf("status after staged submissions: submitted = %d, want %d", resp.submitted, n)
	}
	for i, req := range reqs {
		if r := <-req.reply; r.err != nil {
			t.Fatalf("submission %d: %v", i, r.err)
		}
	}
}

// TestGroupCommitIntakeOverflow fills the intake ring past capacity
// and checks the overflow submission is shed as ErrBusy.
func TestGroupCommitIntakeOverflow(t *testing.T) {
	sh, _ := newTestShard(t, 2)
	// Stage a fake full intake without waking the leader.
	sh.mu.Lock()
	for i := 0; i < 2; i++ {
		req := submitReqPool.Get().(*submitReq)
		req.ctx, req.tasks, req.clamp = context.Background(), oneTask(200+i, 1, 0), true
		sh.intake = append(sh.intake, req)
	}
	sh.mu.Unlock()
	_, err := sh.submit(context.Background(), oneTask(299, 1, 0), true)
	if err == nil {
		t.Fatal("overflow submission accepted, want ErrBusy")
	}
	// Drain the staged requests so cleanup can purge promptly.
	sh.kick <- struct{}{}
}

// TestGroupCommitParity is the determinism proof for batched
// admission: many goroutines race single-task submissions into one
// shard, and the resulting event trace must be byte-identical to the
// same submissions applied serially — one core session, one Admit per
// submission — in the order the leader admitted them (recovered from
// the arrival events, since every submission carries a distinct ID).
func TestGroupCommitParity(t *testing.T) {
	const goroutines, perG = 8, 25
	sh, hist := newTestShard(t, goroutines*perG)

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
	if _, err := sh.do(context.Background(), shardReq{op: opDrain}); err != nil {
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
	snap := hist.Snapshot()
	if snap.Sum != float64(len(subs)) {
		t.Fatalf("batch histogram mass %v, want %d", snap.Sum, len(subs))
	}
	if snap.Count == 0 || snap.Count > uint64(len(subs)) {
		t.Fatalf("batch histogram count %d out of range [1, %d]", snap.Count, len(subs))
	}
}
