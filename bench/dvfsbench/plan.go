package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/platform"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
)

// planRecent is how many of the latest distinct workloads a repeat
// draws from. The server's plan cache holds 256 entries in 8 stripes of
// 32; at most 63 newer keys cannot fill a stripe, so a repeat always
// hits.
const planRecent = 64

// planSpec is plan-mix's platform: 4 Table II cores, default costs.
var planSpec = server.PlatformSpec{Cores: 4, Platform: "table2"}

// planWork is one distinct batch workload of the plan stream.
type planWork struct {
	index int
	size  int
	seed  int64
	// body, cost and ok are set by the sender of the first request
	// before done is closed; repeats read them after.
	body []byte
	cost string
	ok   bool
	done chan struct{}
}

// tasks regenerates the workload: IDs 0..size-1, cycles uniform in
// [1, 120).
func (w *planWork) tasks() []trace.Record {
	rng := rand.New(rand.NewSource(w.seed))
	recs := make([]trace.Record, w.size)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 1 + 119*rng.Float64()}
	}
	return recs
}

// taskSet converts wire records to the tasks core schedules.
func taskSet(recs []trace.Record) model.TaskSet {
	ts := make(model.TaskSet, len(recs))
	for i, r := range recs {
		ts[i] = r.Task()
	}
	return ts
}

// fourCoreScheduler is the scheduler behind a 4-core table2 session or
// plan with the server's default cost constants (Re 0.1, Rt 0.4): the
// platform of plan-mix and of the submit workloads.
func fourCoreScheduler() (*core.Scheduler, error) {
	return core.New(model.CostParams{Re: 0.1, Rt: 0.4}, platform.Homogeneous(4, platform.TableII(), platform.Ideal{}))
}

// planStream is plan-mix's seeded request stream, shared by both
// senders and generated in claim order: each request repeats one of
// the last planRecent distinct workloads with probability 1/2, and is
// otherwise a fresh workload of size planSizes[0..2] with weights
// 0.6/0.3/0.1.
type planStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sizes  [3]int
	fresh  int
	recent []*planWork
	// sample keeps every eighth fresh workload for the post-run check.
	sample []*planWork
}

func (s *planStream) next() (w *planWork, repeat bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recent) > 0 && s.rng.Float64() < 0.5 {
		return s.recent[s.rng.Intn(len(s.recent))], true
	}
	size := s.sizes[2]
	if u := s.rng.Float64(); u < 0.6 {
		size = s.sizes[0]
	} else if u < 0.9 {
		size = s.sizes[1]
	}
	w = &planWork{index: s.fresh, size: size, seed: s.rng.Int63(), done: make(chan struct{})}
	if len(s.recent) < planRecent {
		s.recent = append(s.recent, w)
	} else {
		s.recent[s.fresh%planRecent] = w
	}
	if s.fresh%8 == 0 {
		s.sample = append(s.sample, w)
	}
	s.fresh++
	return w, false
}

// runPlanMix is plan-mix: a closed loop on POST /v1/plan over the
// seeded stream, in the work slots of the phase. Every repeat must come
// back cached with its first answer's cost; every fresh workload must
// miss; after the run a fixed 1-in-8 sample of the fresh ones is
// re-planned with core.PlanBatch and must match bit for bit.
func runPlanMix(b *bench) (*outcome, error) {
	if err := b.setup(false, nil); err != nil {
		return nil, err
	}
	res := &outcome{primary: "plan"}
	stream := &planStream{rng: rand.New(rand.NewSource(b.cfg.seed)), sizes: b.cfg.planSizes}
	// The echo carries a workload of the middle size, drawn outside the
	// stream.
	echo := &planWork{size: b.cfg.planSizes[1], seed: b.cfg.seed}
	echoBody, err := json.Marshal(server.PlanRequest{PlatformSpec: planSpec, Tasks: echo.tasks()})
	if err != nil {
		return nil, err
	}
	b.timedFrom = time.Now().Add(b.cfg.warmup)
	win := newWindow(b.timedFrom, b.cfg.seconds)
	res.reqPhase, res.tasksPhase = win, win
	err = b.measureLoad(res, func() {
		runSenders(func() {
			// Plans run to hundreds of kilobytes; each sender reads them
			// into one reused buffer.
			buf := new(bytes.Buffer)
			for !b.stopped() && time.Now().Before(win.to) {
				err := b.echoUntilWork(win, echoBody, res)
				if err == nil {
					err = b.plan(buf, stream, res, win)
				}
				if err != nil {
					b.fail(err)
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	if !b.stopped() {
		if err := b.checkPlanSample(stream.sample); err != nil {
			b.fail(err)
		}
	}
	return b.result(res)
}

// plan sends the stream's next request and checks the answer.
func (b *bench) plan(buf *bytes.Buffer, stream *planStream, res *outcome, win window) error {
	w, repeat := stream.next()
	kind := "plan_miss"
	if repeat {
		kind = "plan_hit"
		<-w.done
		if !w.ok {
			return fmt.Errorf("plan workload %d: repeat of a request that failed", w.index)
		}
	} else {
		defer close(w.done)
		body, err := json.Marshal(server.PlanRequest{PlatformSpec: planSpec, Tasks: w.tasks()})
		if err != nil {
			return err
		}
		w.body = body
	}
	r, err := b.do(kind, "POST", "/v1/plan", w.body, "", buf)
	if err != nil {
		return err
	}
	if err := expect(r, 200, fmt.Sprintf("plan workload %d", w.index)); err != nil {
		return err
	}
	var got struct {
		TotalCost float64 `json:"total_cost"`
		Cached    bool    `json:"cached"`
	}
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("plan workload %d: %w", w.index, err)
	}
	cost := formatCost(got.TotalCost)
	if repeat {
		if !got.Cached || cost != w.cost {
			return fmt.Errorf("repeat of plan workload %d: cached=%v cost %s, want cached=true cost %s", w.index, got.Cached, cost, w.cost)
		}
	} else {
		if got.Cached {
			return fmt.Errorf("fresh plan workload %d was served from the cache", w.index)
		}
		w.cost, w.ok = cost, true
	}
	if win.has(r.sent) {
		res.rec.add("plan", r.sent, r.ms())
		res.rec.add(kind, r.sent, r.ms())
		res.tasks.Add(int64(w.size))
	}
	return nil
}

// checkPlanSample re-plans the sampled fresh workloads in process.
func (b *bench) checkPlanSample(sample []*planWork) error {
	sched, err := fourCoreScheduler()
	if err != nil {
		return err
	}
	for _, w := range sample {
		plan, err := sched.PlanBatch(context.Background(), taskSet(w.tasks()))
		if err != nil {
			return err
		}
		_, _, total := plan.Cost()
		if got := formatCost(total); got != w.cost {
			return fmt.Errorf("plan workload %d: service cost %s, core.PlanBatch %s", w.index, w.cost, got)
		}
	}
	return nil
}
