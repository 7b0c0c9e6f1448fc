package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
)

// coreProbe times direct calls into internal/core and internal/obs, the
// same set on every workload's traced run: the judge oracle's batches
// (OnlineSession.Submit) and drains, single-task Admits into a 4-core
// session and Snapshots of it, Scheduler.PlanBatch at the three
// plan-mix sizes, one judge replay with scheduler metrics on, and a
// decode of the oracle's binary trace.
type coreProbe struct {
	admitUs, drainMs, admitSingleUs, snapshotMs []float64
	planUs                                      [3][]float64
	evalsPerTask, preemptsPerTask               float64
	insertsPerTask                              float64
	eventsPerTask, bytesPerEvent                float64
	decodeUsPerEvent                            float64
}

func (b *bench) probeCore() (*coreProbe, error) {
	p := &coreProbe{}
	traces, err := b.judgeOracle()
	if err != nil {
		return nil, err
	}
	for _, tr := range traces {
		p.admitUs = append(p.admitUs, tr.admitUs...)
		p.drainMs = append(p.drainMs, tr.drainMs)
	}
	if err := b.probeCounts(p); err != nil {
		return nil, err
	}
	if err := b.probeObs(p, traces[0]); err != nil {
		return nil, err
	}
	if err := b.probeSingle(p); err != nil {
		return nil, err
	}
	return p, b.probePlans(p)
}

// probeCounts replays the first judge trace with scheduler metrics on
// (and no wall-clock reads) and divides the counters by its tasks.
func (b *bench) probeCounts(p *coreProbe) error {
	tasks, err := judgeTasks(b.cfg.seed, b.cfg.judgeScale)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	sched, err := core.New(judgeParams(), judgePlatform(), core.WithMetrics(reg), core.WithClock(nil))
	if err != nil {
		return err
	}
	ctx := context.Background()
	sess, err := sched.OpenOnline(ctx)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(tasks); lo += judgeBatch {
		batch := append(model.TaskSet(nil), tasks[lo:min(lo+judgeBatch, len(tasks))]...)
		if err := sess.Submit(ctx, batch); err != nil {
			return err
		}
	}
	if _, err := sess.Drain(ctx); err != nil {
		return err
	}
	snap := reg.Snapshot()
	n := float64(len(tasks))
	p.evalsPerTask = snap.Counters["lmc.marginal_evals"] / n
	p.preemptsPerTask = snap.Counters["lmc.preempts_issued"] / n
	p.insertsPerTask = snap.Counters["dynsched.inserts"] / n
	return nil
}

// probeObs decodes the oracle's binary trace three times and keeps the
// fastest pass.
func (b *bench) probeObs(p *coreProbe, tr *judgeTrace) error {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		events, err := obs.ReadBinary(bytes.NewReader(tr.log))
		t1 := time.Now()
		if err != nil {
			return err
		}
		if len(events) != tr.events {
			return fmt.Errorf("decoded %d events, encoded %d", len(events), tr.events)
		}
		b.timeCore("obs.decode", t0, t1)
		if d := t1.Sub(t0); best < 0 || d < best {
			best = d
		}
	}
	p.eventsPerTask = float64(tr.events) / float64(tr.tasks)
	p.bytesPerEvent = float64(len(tr.log)) / float64(tr.events)
	p.decodeUsPerEvent = float64(best) / 1e3 / float64(tr.events)
	return nil
}

// probeSingle admits cfg.rotate single tasks into a 4-core session the
// way the submit workloads do, then snapshots the full session.
func (b *bench) probeSingle(p *coreProbe) error {
	sched, err := fourCoreScheduler()
	if err != nil {
		return err
	}
	ctx := context.Background()
	sess, err := sched.OpenOnline(ctx)
	if err != nil {
		return err
	}
	defer sess.Close()
	n := max(1, int(float64(b.cfg.rotate)*b.cfg.probeScale))
	for idx := 0; idx < n; idx++ {
		task := model.TaskSet{{ID: idx, Cycles: 2, Arrival: float64(idx) / 2, Deadline: model.NoDeadline}}
		t0 := time.Now()
		if err := sess.Admit(ctx, task); err != nil {
			return err
		}
		t1 := time.Now()
		b.timeCore("core.admit_single", t0, t1)
		p.admitSingleUs = append(p.admitSingleUs, float64(t1.Sub(t0))/1e3)
	}
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := sess.Snapshot(); err != nil {
			return err
		}
		t1 := time.Now()
		b.timeCore("core.snapshot", t0, t1)
		p.snapshotMs = append(p.snapshotMs, float64(t1.Sub(t0))/1e6)
	}
	return nil
}

// probePlans plans fresh seeded workloads of each plan-mix size.
func (b *bench) probePlans(p *coreProbe) error {
	sched, err := fourCoreScheduler()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for k, size := range b.cfg.planSizes {
		reps := max(3, int(float64([3]int{60, 20, 8}[k])*b.cfg.probeScale))
		for i := 0; i < reps; i++ {
			w := &planWork{size: size, seed: rng.Int63()}
			tasks := taskSet(w.tasks())
			t0 := time.Now()
			if _, err := sched.PlanBatch(context.Background(), tasks); err != nil {
				return err
			}
			t1 := time.Now()
			b.timeCore(fmt.Sprintf("core.plan.n%d", size), t0, t1)
			p.planUs[k] = append(p.planUs[k], float64(t1.Sub(t0))/1e3)
		}
	}
	return nil
}
