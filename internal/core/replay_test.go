package core_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
)

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestReplayTraceRebuildsPromotedSession is the promotion path at the
// facade level: run the golden judge session to the end, then rebuild
// it the way a replica is promoted — replay the whole recorded trace's
// arrivals through ReplayTrace into a fresh session. The rebuilt trace
// must equal the original run's byte for byte, and its drain cost bit
// for bit.
func TestReplayTraceRebuildsPromotedSession(t *testing.T) {
	ctx := context.Background()
	batches := goldenBatches(t)

	recA := &obs.Recorder{}
	sessA, err := judgeScheduler(t, recA).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sessA, batches)
	resA, err := sessA.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events := recA.Events()

	recB := &obs.Recorder{}
	sessB, err := judgeScheduler(t, recB).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n, err := sessB.ReplayTrace(ctx, events)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, b := range batches {
		want += len(b)
	}
	if n != want {
		t.Fatalf("ReplayTrace re-admitted %d tasks, want the %d submitted", n, want)
	}
	resB, err := sessB.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantTrace := obs.AppendBinary(nil, recB.Events()), obs.AppendBinary(nil, events); !bytes.Equal(got, wantTrace) {
		t.Errorf("rebuilt trace differs from the original run (%d vs %d bytes)", len(got), len(wantTrace))
	}
	if !bitEq(resB.TotalCost, resA.TotalCost) {
		t.Errorf("rebuilt drain cost %v, original %v", resB.TotalCost, resA.TotalCost)
	}
}

// TestReplayTraceReportsFailedArrival replays a trace that names the
// same task twice: the first arrival is re-admitted, the second fails
// with an error naming its sequence number.
func TestReplayTraceReportsFailedArrival(t *testing.T) {
	ctx := context.Background()
	sess, err := judgeScheduler(t, &obs.Recorder{}).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	arrival := obs.Event{Seq: 1, T: 1, Kind: obs.KindArrival, Task: 7, Cycles: 5}
	dup := arrival
	dup.Seq, dup.T = 2, 2
	n, err := sess.ReplayTrace(ctx, []obs.Event{arrival, dup})
	if n != 1 || err == nil || !strings.Contains(err.Error(), "replay arrival seq 2") {
		t.Fatalf("ReplayTrace of a duplicated arrival = %d, %v; want 1 and an error naming seq 2", n, err)
	}
}

// TestReplayTraceResumesCanceledDrain rebuilds a session whose trace
// ends inside a drain canceled at an event boundary, a state the
// session keeps serving from. The rebuild must land on the source's
// clock, pending count and last Seq, and then drain to the same trace
// and cost.
func TestReplayTraceResumesCanceledDrain(t *testing.T) {
	ctx := context.Background()
	recA := &obs.Recorder{}
	sessA, err := judgeScheduler(t, recA).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// 2 560 tasks arriving within 0.4 s on 16 cores: most are still
	// pending when the drain starts.
	for b := 0; b < 40; b++ {
		batch := make(model.TaskSet, 64)
		for i := range batch {
			id := b*64 + i
			batch[i] = model.Task{ID: id, Cycles: 1 + float64(id%13), Arrival: float64(id) / 6400, Deadline: model.NoDeadline}
		}
		if err := sessA.Submit(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	afterSubmits := recA.LastSeq()
	// The context ends at the drain's second poll, a few hundred events in.
	if _, err := sessA.Drain(&flipCtx{Context: ctx}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("drain under a canceled context: %v, want ErrCanceled", err)
	}
	if recA.LastSeq() == afterSubmits || sessA.Pending() == 0 {
		t.Fatalf("the canceled drain ran no event or every event (seq %d -> %d, %d pending): pick another cut", afterSubmits, recA.LastSeq(), sessA.Pending())
	}
	events := recA.Events()

	recB := &obs.Recorder{}
	sessB, err := judgeScheduler(t, recB).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sessB.ReplayTrace(ctx, events); err != nil {
		t.Fatal(err)
	}
	if !bitEq(sessB.Clock(), sessA.Clock()) || sessB.Pending() != sessA.Pending() || recB.LastSeq() != recA.LastSeq() {
		t.Fatalf("rebuilt clock %v, pending %d, last seq %d; source %v, %d, %d",
			sessB.Clock(), sessB.Pending(), recB.LastSeq(), sessA.Clock(), sessA.Pending(), recA.LastSeq())
	}
	resA, err := sessA.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sessB.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := obs.AppendBinary(nil, recB.Events()), obs.AppendBinary(nil, recA.Events()); !bytes.Equal(got, want) {
		t.Errorf("rebuilt session drained to a different trace (%d vs %d bytes)", len(got), len(want))
	}
	if !bitEq(resB.TotalCost, resA.TotalCost) {
		t.Errorf("rebuilt drain cost %v, source %v", resB.TotalCost, resA.TotalCost)
	}
}

// TestReplayTraceRefusesInexactEnd: a trace cut inside one engine step,
// or one that names an event past the last the engine can emit, does
// not describe a state the engine can stop in, and ReplayTrace fails
// instead of rebuilding a session that disagrees with it.
func TestReplayTraceRefusesInexactEnd(t *testing.T) {
	ctx := context.Background()
	rec := &obs.Recorder{}
	sess, err := judgeScheduler(t, rec).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, sess, goldenBatches(t)[:2])
	if _, err := sess.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	// A completion is always followed, in the same step, by its core's
	// idle event.
	cut := -1
	for i, ev := range events {
		if ev.Kind == obs.KindComplete {
			cut = i + 1
		}
	}
	if cut < 0 || events[cut].Kind != obs.KindCoreIdle {
		t.Fatal("trace has no completion followed by its idle event")
	}
	extra := events[len(events)-1]
	extra.Seq++
	for name, log := range map[string][]obs.Event{
		"cut inside a step":      events[:cut],
		"past the engine's last": append(events[:len(events):len(events)], extra),
	} {
		fresh, err := judgeScheduler(t, &obs.Recorder{}).OpenOnline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.ReplayTrace(ctx, log); err == nil || !strings.Contains(err.Error(), "last seq") {
			t.Errorf("%s: ReplayTrace = %v, want a refusal naming the last seq", name, err)
		}
	}
}

// TestReplayTraceWithoutSink rebuilds a session on a scheduler with no
// sink, the way a client rebuilds a session from its exported log. The
// engine must count the events it does not record, so the replay ends
// on the log's last Seq with the source's clock and pending work, and
// drains to the source's cost.
func TestReplayTraceWithoutSink(t *testing.T) {
	ctx := context.Background()
	rec := &obs.Recorder{}
	src, err := judgeScheduler(t, rec).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, src, goldenBatches(t)[:2])
	if src.Pending() == 0 {
		t.Fatal("nothing pending at the cut; the rebuild would be trivial")
	}
	sess, err := judgeScheduler(t, nil).OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ReplayTrace(ctx, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !bitEq(sess.Clock(), src.Clock()) || sess.Pending() != src.Pending() {
		t.Fatalf("rebuilt clock %v, pending %d; source %v, %d", sess.Clock(), sess.Pending(), src.Clock(), src.Pending())
	}
	want, err := src.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEq(got.TotalCost, want.TotalCost) {
		t.Errorf("rebuilt drain cost %v, source %v", got.TotalCost, want.TotalCost)
	}
}

// TestRestoreBeforeEveryArrival replays arrivals one at a time on two
// cores and, before every arrival, rebuilds the session from its log
// alone, abandons it, and continues on the rebuild. The log the last
// rebuild holds must equal the uninterrupted run's byte for byte, and
// the drained cost bit for bit: a replay must re-derive all rounding
// history, including that of dynamic-schedule ranges that deletes
// emptied. The arrivals come in bursts of one to four equal 0.3-Gcycle
// tasks, so Eq. 27 ties are common and a 1-ulp cost drift moves a task
// to the other core.
func TestRestoreBeforeEveryArrival(t *testing.T) {
	ctx := context.Background()
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	plat := platform.Homogeneous(2, platform.TableII(), platform.Ideal{})
	rng := rand.New(rand.NewSource(1)) // deterministic workload, not randomness
	var tasks model.TaskSet
	for at := 0.0; len(tasks) < 200; at += 0.05 * float64(1+rng.Intn(4)) {
		for k := rng.Intn(4); k >= 0; k-- {
			tasks = append(tasks, model.Task{ID: len(tasks) + 1, Cycles: 0.3, Arrival: at, Deadline: model.NoDeadline})
		}
	}
	open := func(rec *obs.Recorder) *core.OnlineSession {
		sched, err := core.New(params, plat, core.WithSink(rec))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sched.OpenOnline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	run := func(rebuildEach bool) ([]byte, *sim.Result) {
		rec := &obs.Recorder{}
		sess := open(rec)
		for _, task := range tasks {
			if rebuildEach {
				log := rec.Events()
				rec = &obs.Recorder{}
				sess = open(rec)
				if _, err := sess.ReplayTrace(ctx, log); err != nil {
					t.Fatal(err)
				}
			}
			if err := sess.Submit(ctx, model.TaskSet{task}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sess.Drain(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return obs.AppendBinary(nil, rec.Events()), res
	}

	want, wantRes := run(false)
	got, gotRes := run(true)
	if !bytes.Equal(got, want) {
		t.Errorf("rebuilt-before-every-arrival log differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if !bitEq(gotRes.TotalCost, wantRes.TotalCost) {
		t.Errorf("total cost %v, uninterrupted %v", gotRes.TotalCost, wantRes.TotalCost)
	}
}
