package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/workload"
)

func onlineTrace(t *testing.T, seed int64) model.TaskSet {
	t.Helper()
	judge := workload.DefaultJudgeConfig()
	judge.Interactive, judge.NonInteractive, judge.Duration = 200, 30, 60
	tasks, err := judge.Generate(rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tasks
}

// TestOpenOnlineMatchesRunOnline submits a judge trace in arrival-time
// batches and checks the drained result equals the one-shot RunOnline
// on the same trace.
func TestOpenOnlineMatchesRunOnline(t *testing.T) {
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	plat := platform.Homogeneous(4, platform.TableII(), platform.Ideal{})
	tasks := onlineTrace(t, 42)

	ref, err := core.New(params, plat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunOnline(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sched, err := core.New(params, plat, core.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ordered := tasks.Clone()
	ordered.ByArrival()
	for len(ordered) > 0 {
		n := 7
		if n > len(ordered) {
			n = len(ordered)
		}
		if err := sess.Submit(context.Background(), ordered[:n]); err != nil {
			t.Fatal(err)
		}
		ordered = ordered[n:]
	}
	if sess.Pending() == 0 {
		t.Fatal("expected work still pending before drain (batches should interleave)")
	}
	got, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCost != want.TotalCost || got.TotalEnergy != want.TotalEnergy ||
		got.Makespan != want.Makespan {
		t.Fatalf("session diverged:\n got cost=%v energy=%v makespan=%v\nwant cost=%v energy=%v makespan=%v",
			got.TotalCost, got.TotalEnergy, got.Makespan,
			want.TotalCost, want.TotalEnergy, want.Makespan)
	}
	if reg.Snapshot().Counters["lmc.marginal_evals"] == 0 {
		t.Fatal("session did not feed scheduler metrics")
	}
}

// TestAdmitClampsStaleArrivals covers the serving-plane ingestion
// contract: a batch stamped before the session clock is clamped to
// "now" and admitted, where Submit would reject it.
func TestAdmitClampsStaleArrivals(t *testing.T) {
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	sched, err := core.New(params, platform.Homogeneous(2, platform.TableII(), platform.Ideal{}))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Admit(context.Background(), nil); err == nil {
		t.Fatal("empty admission accepted")
	}
	first := model.TaskSet{{ID: 1, Cycles: 10, Arrival: 5, Deadline: model.NoDeadline}}
	if err := sess.Admit(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	if sess.Clock() != 5 {
		t.Fatalf("clock %v != 5", sess.Clock())
	}
	// One stale arrival, one in the future: the stale one moves to the
	// clock, the future one advances it.
	mixed := model.TaskSet{
		{ID: 2, Cycles: 10, Arrival: 1, Deadline: model.NoDeadline},
		{ID: 3, Cycles: 10, Arrival: 7, Deadline: model.NoDeadline},
	}
	if err := sess.Admit(context.Background(), mixed); err != nil {
		t.Fatalf("stale arrival not clamped: %v", err)
	}
	if mixed[0].Arrival != 5 {
		t.Fatalf("stale arrival = %v, want clamped to 5", mixed[0].Arrival)
	}
	if sess.Clock() != 7 {
		t.Fatalf("clock %v != 7 (latest admitted arrival)", sess.Clock())
	}
	// Duplicate IDs are still rejected — clamping loosens time, not
	// identity.
	if err := sess.Admit(context.Background(), first.Clone()); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("completed %d tasks, want 3", len(res.Tasks))
	}
}

func TestOpenOnlineRejectsBadSubmissions(t *testing.T) {
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	sched, err := core.New(params, platform.Homogeneous(2, platform.TableII(), platform.Ideal{}))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(context.Background(), nil); err == nil {
		t.Fatal("empty submission accepted")
	}
	batch := model.TaskSet{{ID: 1, Cycles: 10, Arrival: 5, Deadline: model.NoDeadline}}
	if err := sess.Submit(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	if sess.Clock() != 5 {
		t.Fatalf("clock %v != 5 (latest arrival)", sess.Clock())
	}
	stale := model.TaskSet{{ID: 2, Cycles: 10, Arrival: 1, Deadline: model.NoDeadline}}
	if err := sess.Submit(context.Background(), stale); err == nil {
		t.Fatal("stale arrival accepted")
	}
	if _, err := sess.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Drain(context.Background()); err == nil {
		t.Fatal("double drain accepted")
	}
}

// flipCtx reports no error on its first Err call and context.Canceled
// on every later one: a context canceled just after a call checked it.
type flipCtx struct {
	context.Context
	calls int
}

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.Canceled
}

// TestDrainCanceledBeforeCallChangesNothing: a drain whose context
// ended before the call processes no event, however far the session's
// own step count is from a poll, and the retry drains.
func TestDrainCanceledBeforeCallChangesNothing(t *testing.T) {
	rec := &obs.Recorder{}
	sched, err := core.New(model.CostParams{Re: 0.1, Rt: 0.4},
		platform.Homogeneous(4, platform.TableII(), platform.Ideal{}), core.WithSink(rec))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched.OpenOnline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch := make(model.TaskSet, 20)
	for i := range batch {
		batch[i] = model.Task{ID: i + 1, Cycles: 1 + float64(i%3), Arrival: float64(i) * 0.01, Deadline: model.NoDeadline}
	}
	if err := sess.Submit(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	pending, last := sess.Pending(), rec.LastSeq()
	if pending == 0 {
		t.Fatal("nothing pending; the drain would have nothing to do")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Drain(canceled); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("drain under a canceled context = %v, want ErrCanceled", err)
	}
	if sess.Pending() != pending || rec.LastSeq() != last {
		t.Fatalf("canceled drain moved the session: %d pending, last seq %d; before %d, %d", sess.Pending(), rec.LastSeq(), pending, last)
	}
	res, err := sess.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != len(batch) {
		t.Fatalf("retried drain finished %d tasks, %d were submitted", len(res.Tasks), len(batch))
	}
}

// TestSubmitAppliesWholeOrNothing: Submit and Admit either apply a
// batch whole or leave the session untouched. A context canceled
// before the call changes nothing and the retry is accepted; a context
// canceled once the batch is in cannot cut the advance short, which
// would leave tasks with no arrival in the trace and make the retry a
// duplicate.
func TestSubmitAppliesWholeOrNothing(t *testing.T) {
	for _, admit := range []bool{false, true} {
		rec := &obs.Recorder{}
		sched, err := core.New(model.CostParams{Re: 0.1, Rt: 0.4},
			platform.Homogeneous(2, platform.TableII(), platform.Ideal{}), core.WithSink(rec))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sched.OpenOnline(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		apply := sess.Submit
		if admit {
			apply = sess.Admit
		}
		// Enough short tasks that the advance runs past the engine's
		// context poll interval.
		batch := make(model.TaskSet, 300)
		for i := range batch {
			batch[i] = model.Task{ID: i + 1, Cycles: 0.5, Arrival: float64(i) * 0.2, Deadline: model.NoDeadline}
		}

		canceled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := apply(canceled, batch.Clone()); !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("admit=%v: canceled submit = %v, want ErrCanceled", admit, err)
		}
		if sess.Pending() != 0 || rec.Len() != 0 {
			t.Fatalf("admit=%v: canceled submit left %d pending and %d events", admit, sess.Pending(), rec.Len())
		}
		if err := apply(&flipCtx{Context: context.Background()}, batch.Clone()); err != nil {
			t.Fatalf("admit=%v: submit whose context ends mid-advance = %v, want it applied", admit, err)
		}
		arrivals := 0
		for _, ev := range rec.Events() {
			if ev.Kind == obs.KindArrival {
				arrivals++
			}
		}
		if last := batch[len(batch)-1].Arrival; arrivals != len(batch) || sess.Clock() != last {
			t.Fatalf("admit=%v: %d of %d arrivals traced, clock %v; want all and clock %v", admit, arrivals, len(batch), sess.Clock(), last)
		}
		res, err := sess.Drain(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tasks) != len(batch) {
			t.Fatalf("admit=%v: drained %d tasks, %d were submitted", admit, len(res.Tasks), len(batch))
		}
	}
}
