package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
)

var sessionParams = model.CostParams{Re: 0.1, Rt: 0.4}

func sessionTasks(n int, seed int64) model.TaskSet {
	rng := rand.New(rand.NewSource(seed))
	tasks := make(model.TaskSet, n)
	at := 0.0
	for i := range tasks {
		at += rng.Float64() * 5
		tasks[i] = model.Task{
			ID:          i,
			Cycles:      1 + rng.Float64()*50,
			Arrival:     at,
			Deadline:    model.NoDeadline,
			Interactive: rng.Intn(3) == 0,
		}
	}
	return tasks
}

// fifoSession is the engine_test fifo policy, re-declared to keep this
// file self-contained with a preemption-free placement rule.
type sessionFIFO struct{ queue []*TaskState }

func (f *sessionFIFO) Name() string   { return "session-fifo" }
func (f *sessionFIFO) Init(e *Engine) {}
func (f *sessionFIFO) OnArrival(e *Engine, t *TaskState) {
	f.queue = append(f.queue, t)
	f.drain(e)
}
func (f *sessionFIFO) OnCompletion(e *Engine, coreID int, _ *TaskState) { f.drain(e) }
func (f *sessionFIFO) OnTick(e *Engine)                                 {}
func (f *sessionFIFO) drain(e *Engine) {
	for len(f.queue) > 0 {
		placed := false
		for i := 0; i < e.NumCores(); i++ {
			if e.Idle(i) {
				t := f.queue[0]
				f.queue = f.queue[1:]
				if err := e.Start(i, t, e.RateTable(i).Max()); err != nil {
					panic(err)
				}
				placed = true
				break
			}
		}
		if !placed {
			return
		}
	}
}

// TestSessionMatchesRun injects the same trace in several batches
// (always before each batch's earliest arrival) and checks the final
// result is identical to a one-shot Run.
func TestSessionMatchesRun(t *testing.T) {
	tasks := sessionTasks(40, 7)
	plat := platform.Homogeneous(2, platform.TableII(), platform.Ideal{})

	want, err := Run(Config{Platform: plat, Policy: &sessionFIFO{}}, tasks, sessionParams)
	if err != nil {
		t.Fatal(err)
	}

	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	// Inject in three chunks, advancing only to just before the next
	// chunk's first arrival so later arrivals still interleave with
	// running work.
	chunks := []model.TaskSet{tasks[:15], tasks[15:30], tasks[30:]}
	for i, chunk := range chunks {
		if i > 0 {
			first := chunk[0].Arrival
			for _, task := range chunk {
				if task.Arrival < first {
					first = task.Arrival
				}
			}
			if err := s.AdvanceTo(context.Background(), first*0.999); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Inject(chunk); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if got.TotalCost != want.TotalCost || got.TotalEnergy != want.TotalEnergy ||
		got.Makespan != want.Makespan || got.TurnaroundSum != want.TurnaroundSum {
		t.Fatalf("session diverged from Run:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.Tasks {
		if got.Tasks[i].Completion != want.Tasks[i].Completion {
			t.Fatalf("task %d completion %v != %v", i, got.Tasks[i].Completion, want.Tasks[i].Completion)
		}
	}
}

func TestSessionRejectsPastArrivalsAndDuplicates(t *testing.T) {
	plat := platform.Homogeneous(1, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(model.TaskSet{{ID: 0, Cycles: 5, Deadline: model.NoDeadline}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(model.TaskSet{{ID: 0, Cycles: 5, Deadline: model.NoDeadline}}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate ID accepted: %v", err)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Clock() <= 0 {
		t.Fatalf("clock did not advance: %v", s.Clock())
	}
	past := model.TaskSet{{ID: 1, Cycles: 5, Arrival: s.Clock() / 2, Deadline: model.NoDeadline}}
	if err := s.Inject(past); err == nil || !strings.Contains(err.Error(), "before the session clock") {
		t.Fatalf("past arrival accepted: %v", err)
	}
}

// TestSessionRefusesArrivalPastMaxTime injects a batch with one task
// arriving past the max time, which virtual time can never reach. Inject
// must refuse the whole batch before changing anything: no event is
// queued, no ID is taken, and the batch's IDs inject cleanly afterwards.
func TestSessionRefusesArrivalPastMaxTime(t *testing.T) {
	plat := platform.Homogeneous(1, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	task := func(id int, arrival float64) model.Task {
		return model.Task{ID: id, Cycles: 5, Arrival: arrival, Deadline: model.NoDeadline}
	}
	if err := s.Inject(model.TaskSet{task(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(ctx, 1); err != nil {
		t.Fatal(err)
	}
	type state struct {
		clock                  uint64
		pending, events, tasks int
		ids                    idState
		orderCtr               uint64
	}
	snap := func() state {
		return state{math.Float64bits(s.Clock()), s.Pending(), len(s.e.events), len(s.e.tasks), idsOf(s), s.e.orderCtr}
	}
	before := snap()
	if err := s.Inject(model.TaskSet{task(2, 3), task(3, 2e9)}); err == nil || !strings.Contains(err.Error(), "past the max time") {
		t.Fatalf("arrival past max time accepted: %v", err)
	}
	if after := snap(); after != before {
		t.Fatalf("refused batch changed the session: %+v -> %+v", before, after)
	}
	if err := s.Inject(model.TaskSet{task(2, 3), task(3, 5)}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != 3 {
		t.Fatalf("drained %d tasks, want 3", len(res.Tasks))
	}
}

// idState is a session's ID bookkeeping: the largest ID and the set,
// which is nil until an ID fails to exceed every earlier one.
type idState struct {
	maxID   int
	indexed bool
	n       int
}

func idsOf(s *Session) idState { return idState{s.maxID, s.ids != nil, len(s.ids)} }

// TestSessionIDsMatchMap holds Inject's ID bookkeeping to a plain map
// on seeded random batch sequences: increasing runs broken by step
// backs, repeats within and across batches, negative and zero IDs, and
// batches refused for an arrival before the clock or past the max time.
// Every batch must be accepted or refused with the error the map model
// predicts, a refused one must leave the ID state as it was, and the
// drained tasks must be exactly the accepted ones.
func TestSessionIDsMatchMap(t *testing.T) {
	const maxTime = 1e6
	rng := rand.New(rand.NewSource(1))
	plat := platform.Homogeneous(2, platform.TableII(), platform.Ideal{})
	outcomes := map[string]int{}
	indexed := 0
	for seq := 0; seq < 300; seq++ {
		s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}, MaxTime: maxTime}, sessionParams)
		if err != nil {
			t.Fatal(err)
		}
		taken := map[int]bool{}
		id := rng.Intn(7) - 3
		batches := 1 + rng.Intn(12)
		for b := 0; b < batches; b++ {
			batch := make(model.TaskSet, 1+rng.Intn(6))
			for k := range batch {
				arrival := s.Clock() + rng.Float64()*2
				switch r := rng.Intn(40); {
				case r == 0 && s.Clock() > 0:
					arrival = s.Clock() / 2
				case r == 1:
					arrival = maxTime * 2
				}
				batch[k] = model.Task{ID: id, Cycles: 0.5 + rng.Float64(), Arrival: arrival, Deadline: model.NoDeadline}
				switch r := rng.Intn(20); {
				case r < 2:
					id -= rng.Intn(4) // a repeat or a step back
				case r == 2:
					id = rng.Intn(7) - 3
				default:
					id += 1 + rng.Intn(3)
				}
			}
			// The map model: the first task's fault, checked in
			// Inject's order, refuses the batch.
			var want error
			inBatch := map[int]bool{}
			for _, task := range batch {
				switch {
				case taken[task.ID] || inBatch[task.ID]:
					want = fmt.Errorf("sim: duplicate task ID %d", task.ID)
				case task.Arrival < s.Clock():
					want = fmt.Errorf("sim: task %d arrives at %v, before the session clock %v", task.ID, task.Arrival, s.Clock())
				case task.Arrival > maxTime:
					want = fmt.Errorf("sim: task %d arrives at %v, past the max time %v", task.ID, task.Arrival, float64(maxTime))
				}
				if want != nil {
					break
				}
				inBatch[task.ID] = true
			}
			before := idsOf(s)
			got := s.Inject(batch.Clone())
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("sequence %d batch %d %+v (taken %v): Inject = %v, map model %v", seq, b, batch, taken, got, want)
			}
			if want != nil {
				for _, o := range []string{"duplicate", "before the session clock", "past the max time"} {
					if strings.Contains(want.Error(), o) {
						outcomes[o]++
					}
				}
				if after := idsOf(s); after != before {
					t.Fatalf("sequence %d batch %d: refused batch changed the ID state %+v -> %+v", seq, b, before, after)
				}
				continue
			}
			outcomes["ok"]++
			for _, task := range batch {
				taken[task.ID] = true
			}
			if rng.Intn(2) == 0 {
				if err := s.AdvanceTo(context.Background(), s.Clock()+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if s.ids != nil {
			indexed++
		}
		if len(taken) == 0 {
			continue
		}
		res, err := s.Finish(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		drained := map[int]bool{}
		for _, ts := range res.Tasks {
			if drained[ts.Task.ID] {
				t.Fatalf("sequence %d: task %d drained twice", seq, ts.Task.ID)
			}
			drained[ts.Task.ID] = true
		}
		if !reflect.DeepEqual(drained, taken) {
			t.Fatalf("sequence %d: drained IDs %v, accepted %v", seq, drained, taken)
		}
	}
	for _, o := range []string{"ok", "duplicate", "before the session clock", "past the max time"} {
		if outcomes[o] == 0 {
			t.Fatalf("batches did not cover %q: %v", o, outcomes)
		}
	}
	if indexed == 0 || indexed == 300 {
		t.Fatalf("%d of 300 sessions built the ID set; want both paths covered", indexed)
	}
}

func TestSessionAdvanceLeavesFutureWorkPending(t *testing.T) {
	plat := platform.Homogeneous(1, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	tasks := model.TaskSet{
		{ID: 0, Cycles: 1, Arrival: 0, Deadline: model.NoDeadline},
		{ID: 1, Cycles: 1, Arrival: 1000, Deadline: model.NoDeadline},
	}
	if err := s.Inject(tasks); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(context.Background(), 500); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("want 1 pending after partial advance, got %d", s.Pending())
	}
	if s.Clock() != 500 {
		t.Fatalf("clock %v != 500", s.Clock())
	}
	if err := s.AdvanceTo(context.Background(), 499); err == nil {
		t.Fatal("backwards advance accepted")
	}
	res, err := s.Finish(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 1000 {
		t.Fatalf("second task should complete after its arrival: makespan %v", res.Makespan)
	}
	if _, err := s.Finish(context.Background()); err == nil {
		t.Fatal("double Finish accepted")
	}
	if err := s.Inject(tasks); err == nil {
		t.Fatal("Inject after Finish accepted")
	}
}

// TestSessionEmptyFinish checks that finishing a session that never
// received tasks is an explicit error, not a zero Result.
func TestSessionEmptyFinish(t *testing.T) {
	plat := platform.Homogeneous(1, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background()); err == nil {
		t.Fatal("empty Finish accepted")
	}
}

// TestSessionEventStream checks the event trace of an incrementally
// driven session stays well-formed (monotone Seq, balanced
// start/complete pairs).
func TestSessionEventStream(t *testing.T) {
	rec := &obs.Recorder{}
	plat := platform.Homogeneous(2, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}, Sink: rec}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	tasks := sessionTasks(20, 11)
	if err := s.Inject(tasks[:10]); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(context.Background(), tasks[10].Arrival-1e-9); err != nil {
		t.Fatal(err)
	}
	if err := s.Inject(tasks[10:]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(context.Background()); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	var lastSeq uint64
	starts, completes := 0, 0
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("non-monotone Seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		switch ev.Kind {
		case obs.KindStart:
			starts++
		case obs.KindComplete:
			completes++
		}
	}
	if completes != len(tasks) {
		t.Fatalf("want %d completes, got %d", len(tasks), completes)
	}
	if starts < completes {
		t.Fatalf("starts %d < completes %d", starts, completes)
	}
}

func TestSessionMaxTimeGuard(t *testing.T) {
	plat := platform.Homogeneous(1, platform.TableII(), platform.Ideal{})
	s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}, MaxTime: 10}, sessionParams)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(context.Background(), 11); err == nil {
		t.Fatal("advance beyond MaxTime accepted")
	}
	if err := s.AdvanceTo(context.Background(), math.Inf(1)); err == nil {
		t.Fatal("infinite advance accepted")
	}
}

// TestInjectOrderMatchesByArrival: Inject reads a batch in place only
// when ByArrival would leave it unchanged, so the engine holds every
// batch in ByArrival's order whether or not it was sorted. Arrivals
// are drawn from four values, signed zero included, so ties are common.
func TestInjectOrderMatchesByArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	plat := platform.Homogeneous(2, platform.TableII(), platform.Ideal{})
	arrivals := []float64{math.Copysign(0, -1), 0, 1, 2}
	inPlace := 0
	for trial := 0; trial < 500; trial++ {
		batch := make(model.TaskSet, 1+rng.Intn(5))
		for k, id := range rng.Perm(len(batch)) {
			batch[k] = model.Task{ID: id, Cycles: 1, Arrival: arrivals[rng.Intn(len(arrivals))], Deadline: model.NoDeadline}
		}
		want := batch.Clone()
		want.ByArrival()
		if got := inArrivalOrder(batch); got != reflect.DeepEqual(batch, want) {
			t.Fatalf("inArrivalOrder(%+v) = %v, want %v", batch, got, !got)
		} else if got {
			inPlace++
		}
		s, err := OpenSession(Config{Platform: plat, Policy: &sessionFIFO{}}, sessionParams)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Inject(batch); err != nil {
			t.Fatal(err)
		}
		if got := s.Tasks(); !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %+v: engine holds %+v, want %+v", batch, got, want)
		}
	}
	if inPlace == 0 || inPlace == 500 {
		t.Fatalf("%d of 500 batches were in order; want both paths covered", inPlace)
	}
}
