package core_test

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
)

func jsonTrace(events []obs.Event) []byte {
	var b []byte
	for _, ev := range events {
		b = ev.AppendJSON(b)
		b = append(b, '\n')
	}
	return b
}

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestOnlineSnapshotRestoreEquivalence is the end-to-end recovery
// property at the facade level: run an LMC session partway through a
// judge-style trace, snapshot it to bytes, restore it on a separate
// Scheduler, feed both sessions the identical remaining arrivals, and
// require the drained results to be bit-identical and the restored
// session's event trace to be byte-for-byte the suffix of the
// uninterrupted session's.
func TestOnlineSnapshotRestoreEquivalence(t *testing.T) {
	ctx := context.Background()
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	plat := platform.Homogeneous(4, platform.TableII(), platform.DefaultRealistic())
	ordered := onlineTrace(t, 99)
	ordered.ByArrival()

	var batches []model.TaskSet
	for len(ordered) > 0 {
		n := min(9, len(ordered))
		batches = append(batches, ordered[:n])
		ordered = ordered[n:]
	}
	cutAt := len(batches) / 2

	recA := &obs.Recorder{}
	schedA, err := core.New(params, plat, core.WithSink(recA), core.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	sessA, err := schedA.OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:cutAt] {
		if err := sessA.Submit(ctx, b.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if sessA.Pending() == 0 {
		t.Fatal("no work pending at the cut; the snapshot would be trivial")
	}

	blob, err := sessA.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cp, err := sim.UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}

	recB := &obs.Recorder{}
	schedB, err := core.New(params, plat, core.WithSink(recB), core.WithMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := schedB.RestoreOnline(ctx, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bitEq(sessB.Clock(), sessA.Clock()) || sessB.Pending() != sessA.Pending() {
		t.Fatalf("restored session at clock %v / pending %d, original %v / %d",
			sessB.Clock(), sessB.Pending(), sessA.Clock(), sessA.Pending())
	}

	// Both sessions now receive the identical remainder of the trace —
	// per-side clones, since injection takes ownership.
	for _, b := range batches[cutAt:] {
		if err := sessA.Submit(ctx, b.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := sessB.Submit(ctx, b.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	// And one stale batch through the serving-plane Admit path: both
	// clocks are equal, so both clamp identically.
	stale := model.TaskSet{{ID: 90001, Cycles: 4, Arrival: 0, Deadline: model.NoDeadline, Interactive: true}}
	if err := sessA.Admit(ctx, stale.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := sessB.Admit(ctx, stale.Clone()); err != nil {
		t.Fatal(err)
	}

	resA, err := sessA.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := sessB.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}

	if !bitEq(resA.TotalCost, resB.TotalCost) || !bitEq(resA.TotalEnergy, resB.TotalEnergy) ||
		!bitEq(resA.Makespan, resB.Makespan) || !bitEq(resA.TurnaroundSum, resB.TurnaroundSum) ||
		resA.Switches != resB.Switches || resA.Preemptions != resB.Preemptions {
		t.Fatalf("drained results diverged:\n  original cost=%v energy=%v makespan=%v sw=%d pre=%d\n  restored cost=%v energy=%v makespan=%v sw=%d pre=%d",
			resA.TotalCost, resA.TotalEnergy, resA.Makespan, resA.Switches, resA.Preemptions,
			resB.TotalCost, resB.TotalEnergy, resB.Makespan, resB.Switches, resB.Preemptions)
	}
	if len(resA.Tasks) != len(resB.Tasks) {
		t.Fatalf("task counts diverged: %d vs %d", len(resA.Tasks), len(resB.Tasks))
	}
	for i := range resA.Tasks {
		x, y := resA.Tasks[i], resB.Tasks[i]
		if x.Task.ID != y.Task.ID || !bitEq(x.Completion, y.Completion) || !bitEq(x.Energy, y.Energy) {
			t.Fatalf("task %d diverged: completion %v/%v energy %v/%v",
				x.Task.ID, x.Completion, y.Completion, x.Energy, y.Energy)
		}
	}

	// The decisive check: the restored trace IS the original's suffix.
	all := recA.Events()
	var suffix []obs.Event
	for i, ev := range all {
		if ev.Seq > cp.EvSeq {
			suffix = all[i:]
			break
		}
	}
	want, got := jsonTrace(suffix), jsonTrace(recB.Events())
	if len(got) == 0 {
		t.Fatal("restored session emitted no events")
	}
	if string(want) != string(got) {
		t.Fatalf("trace suffix diverged: original %d bytes, restored %d bytes", len(want), len(got))
	}
}

func TestRestoreOnlineRejectsBadInput(t *testing.T) {
	ctx := context.Background()
	params := model.CostParams{Re: 0.1, Rt: 0.4}
	sched4, err := core.New(params, platform.Homogeneous(4, platform.TableII(), platform.Ideal{}))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sched4.OpenOnline(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(ctx, model.TaskSet{
		{ID: 1, Cycles: 30, Deadline: model.NoDeadline},
		{ID: 2, Cycles: 10, Arrival: 0.5, Deadline: model.NoDeadline},
	}); err != nil {
		t.Fatal(err)
	}
	blob, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sched4.RestoreOnline(ctx, []byte("not a checkpoint")); err == nil {
		t.Error("garbage accepted")
	}

	sched2, err := core.New(params, platform.Homogeneous(2, platform.TableII(), platform.Ideal{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched2.RestoreOnline(ctx, blob); err == nil {
		t.Error("core-count mismatch accepted")
	}

	// The original session is still live after its snapshot.
	if _, err := sess.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreBeforeEveryArrival replays arrivals one at a time on two
// cores and, before every arrival, snapshots the session, abandons it,
// and continues on the restored copy. The stitched trace must equal
// the uninterrupted run's byte for byte: every checkpoint must carry
// all rounding history, including that of dynamic-schedule ranges that
// deletes emptied. The arrivals come in bursts of one to four equal
// 0.3-Gcycle tasks, so Eq. 27 ties are common and a 1-ulp cost drift
// moves a task to the other core.
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

	run := func(restoreEach bool) ([]byte, *sim.Result) {
		rec := &obs.Recorder{}
		sched, err := core.New(params, plat, core.WithSink(rec))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := sched.OpenOnline(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			if restoreEach {
				blob, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sess.Close()
				if sess, err = sched.RestoreOnline(ctx, blob); err != nil {
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
		t.Errorf("restored-before-every-arrival trace differs from the uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	if !bitEq(gotRes.TotalCost, wantRes.TotalCost) {
		t.Errorf("total cost %v, uninterrupted %v", gotRes.TotalCost, wantRes.TotalCost)
	}
}
