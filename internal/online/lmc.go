// Package online implements the paper's Least Marginal Cost (LMC)
// heuristic for online-mode scheduling (Section IV): each arriving
// task is assigned to the core where it increases the total cost the
// least, without migrating already-queued tasks.
//
//   - An interactive task must finish as soon as possible: it runs at
//     the core's maximum frequency, preempting a non-interactive task
//     if no core is free. Its marginal cost on core j is Eq. 27:
//     C_j^M = Re·L·E_j(pm) + Rt·L·T_j(pm) + Rt·L·T_j(pm)·N_j,
//     where N_j counts the tasks waiting on core j.
//   - A non-interactive task is inserted into the core's queue at the
//     position that keeps the queue in non-decreasing cycle order
//     (Theorem 3); the marginal cost is computed exactly by the
//     dynamic structure of Section IV-A (package dynsched), and every
//     queued task's frequency follows its position's dominating rate.
package online

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dvfsched/internal/dynsched"
	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/sim"
)

// queueEntry pairs a waiting non-interactive task with its handle in
// the dynamic cost structure and the length estimate used to place it.
type queueEntry struct {
	ts  *sim.TaskState
	h   *dynsched.Handle
	est float64
}

// lmcCore is the per-core state.
type lmcCore struct {
	env   *envelope.Envelope
	sched *dynsched.Scheduler
	// queue holds waiting non-interactive tasks in non-decreasing
	// cycle order (execution order).
	queue []queueEntry
	// paused holds preempted tasks; they resume (LIFO) before any
	// queued task.
	paused []*sim.TaskState
	// interactive holds interactive tasks waiting because every core
	// was running interactive work.
	interactive []*sim.TaskState
}

// waiting returns N_j, the number of tasks waiting behind the running
// one.
func (c *lmcCore) waiting() int { return len(c.queue) + len(c.paused) }

// LMC is the Least Marginal Cost policy. Construct with NewLMC or
// NewLMCEstimated.
type LMC struct {
	params   model.CostParams
	cores    []*lmcCore
	estimate bool
	compSum  float64
	compN    int

	// Metrics, if set before the run, collects scheduler-side
	// observability: "lmc.marginal_evals" counts Eq. 26/27 marginal-
	// cost evaluations, "lmc.preempts_issued" counts interactive
	// preemptions, per-core "lmc.core<j>.queue_depth" gauges track
	// waiting work, and the shared dynsched/rangetree metrics record
	// dynamic-structure updates and their latencies.
	Metrics *obs.Registry

	// Clock, if set alongside Metrics, supplies the wall clock that
	// times dynsched updates into "rangetree.update_ns". The policy
	// never reads real time itself — callers that want latency
	// observations pass time.Now (internal/core does); a nil Clock
	// keeps the run fully deterministic and skips the histogram.
	Clock func() time.Time

	// Cache, if set before the run, resolves per-core envelopes through
	// the memoized cache instead of recomputing them in Init.
	Cache *envelope.Cache

	marginalEvals *obs.Counter
	preemptsCtr   *obs.Counter
	queueDepth    []*obs.Gauge
}

// NewLMC returns an LMC policy for the given cost constants. Task
// lengths are taken from the trace (the paper's trace-based
// simulation setting).
func NewLMC(params model.CostParams) (*LMC, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &LMC{params: params}, nil
}

// NewLMCEstimated returns an LMC variant that, as the paper suggests
// for deployment, predicts each arriving submission's length as the
// average of previously completed submissions instead of reading it
// from the trace. Execution still consumes the true cycles; only the
// placement and rate decisions use the estimate.
func NewLMCEstimated(params model.CostParams) (*LMC, error) {
	l, err := NewLMC(params)
	if err != nil {
		return nil, err
	}
	l.estimate = true
	return l, nil
}

// Name implements sim.Policy.
func (l *LMC) Name() string {
	if l.estimate {
		return "lmc-estimated"
	}
	return "lmc"
}

// estimateFor returns the length used for placement decisions: the
// true cycles, or in estimated mode the running mean of completed
// submissions (falling back to the true value while no history
// exists).
func (l *LMC) estimateFor(t *sim.TaskState) float64 {
	if !l.estimate || l.compN == 0 {
		return t.Task.Cycles
	}
	return l.compSum / float64(l.compN)
}

// Init implements sim.Policy.
func (l *LMC) Init(e *sim.Engine) {
	l.cores = make([]*lmcCore, e.NumCores())
	envs := map[*model.RateTable]*envelope.Envelope{}
	for i := 0; i < e.NumCores(); i++ {
		rt := e.RateTable(i)
		env, ok := envs[rt]
		if !ok {
			if l.Cache != nil {
				cached, err := l.Cache.Get(l.params, rt)
				if err != nil {
					panic(err)
				}
				env = cached
			} else {
				env = envelope.MustCompute(l.params, rt)
			}
			envs[rt] = env
		}
		l.cores[i] = &lmcCore{env: env, sched: dynsched.NewFromEnvelope(env)}
	}
	l.marginalEvals, l.preemptsCtr, l.queueDepth = nil, nil, nil
	if l.Metrics != nil {
		l.marginalEvals = l.Metrics.Counter("lmc.marginal_evals")
		l.preemptsCtr = l.Metrics.Counter("lmc.preempts_issued")
		l.queueDepth = make([]*obs.Gauge, e.NumCores())
		for i := range l.cores {
			l.cores[i].sched.Instrument(l.Metrics)
			l.cores[i].sched.SetClock(l.Clock)
			l.queueDepth[i] = l.Metrics.Gauge(fmt.Sprintf("lmc.core%d.queue_depth", i))
		}
	}
}

// noteQueueDepth refreshes core j's waiting-work gauge.
func (l *LMC) noteQueueDepth(j int) {
	if l.queueDepth != nil {
		l.queueDepth[j].Set(float64(l.cores[j].waiting() + len(l.cores[j].interactive)))
	}
}

// interactiveMarginalCost evaluates Eq. 27 for core j.
func (l *LMC) interactiveMarginalCost(e *sim.Engine, j int, cycles float64) float64 {
	pm := e.RateTable(j).Max()
	nj := float64(l.cores[j].waiting())
	return l.params.Re*cycles*pm.Energy + l.params.Rt*cycles*pm.Time + l.params.Rt*cycles*pm.Time*nj
}

// OnArrival implements sim.Policy.
func (l *LMC) OnArrival(e *sim.Engine, t *sim.TaskState) {
	if t.Task.Interactive {
		l.placeInteractive(e, t)
		return
	}
	l.placeNonInteractive(e, t)
}

func (l *LMC) placeInteractive(e *sim.Engine, t *sim.TaskState) {
	// Eligible cores are idle or running preemptible (non-interactive)
	// work; among them pick the least marginal cost (Eq. 27).
	best, bestCost := -1, math.Inf(1)
	for j := 0; j < e.NumCores(); j++ {
		if r := e.Running(j); r != nil && r.Task.Interactive {
			continue
		}
		if l.marginalEvals != nil {
			l.marginalEvals.Inc()
		}
		if cost := l.interactiveMarginalCost(e, j, t.Task.Cycles); cost < bestCost {
			best, bestCost = j, cost
		}
	}
	if best < 0 {
		// Every core runs interactive work: wait on the core with
		// the shortest interactive backlog.
		best = 0
		for j := 1; j < e.NumCores(); j++ {
			if len(l.cores[j].interactive) < len(l.cores[best].interactive) {
				best = j
			}
		}
		l.cores[best].interactive = append(l.cores[best].interactive, t)
		l.noteQueueDepth(best)
		return
	}
	c := l.cores[best]
	if !e.Idle(best) {
		prev, err := e.Preempt(best)
		if err != nil {
			panic(err)
		}
		c.paused = append(c.paused, prev)
		if l.preemptsCtr != nil {
			l.preemptsCtr.Inc()
		}
		l.noteQueueDepth(best)
	}
	if err := e.Start(best, t, e.RateTable(best).Max()); err != nil {
		panic(err)
	}
}

func (l *LMC) placeNonInteractive(e *sim.Engine, t *sim.TaskState) {
	est := l.estimateFor(t)
	best, bestCost := -1, math.Inf(1)
	for j, c := range l.cores {
		if l.marginalEvals != nil {
			l.marginalEvals.Inc()
		}
		cost, err := c.sched.MarginalInsertCost(est)
		if err != nil {
			panic(err)
		}
		if cost < bestCost {
			best, bestCost = j, cost
		}
	}
	c := l.cores[best]
	h, err := c.sched.Insert(est)
	if err != nil {
		panic(err)
	}
	// Keep the dispatch queue in non-decreasing (estimated) cycle
	// order; binary search for the insertion point (ties keep arrival
	// order).
	pos := sort.Search(len(c.queue), func(i int) bool {
		return c.queue[i].est > est
	})
	c.queue = append(c.queue, queueEntry{})
	copy(c.queue[pos+1:], c.queue[pos:])
	c.queue[pos] = queueEntry{ts: t, h: h, est: est}
	l.noteQueueDepth(best)

	if e.Idle(best) {
		l.dispatch(e, best)
	} else {
		l.adjustRunning(e, best)
	}
}

// adjustRunning re-derives the running non-interactive task's
// frequency from its backward position 1 + N_j, per C(k, p_k).
func (l *LMC) adjustRunning(e *sim.Engine, j int) {
	r := e.Running(j)
	if r == nil || r.Task.Interactive {
		return
	}
	c := l.cores[j]
	level := c.env.LevelFor(1 + c.waiting())
	if !model.ApproxEq(e.CurrentLevel(j).Rate, level.Rate, model.DefaultEps) {
		if err := e.SetLevel(j, level); err != nil {
			panic(err)
		}
	}
}

// dispatch starts the highest-priority waiting work on an idle core:
// waiting interactive tasks, then preempted tasks, then the shortest
// queued non-interactive task at its position's dominating rate.
func (l *LMC) dispatch(e *sim.Engine, j int) {
	if !e.Idle(j) {
		return
	}
	c := l.cores[j]
	switch {
	case len(c.interactive) > 0:
		t := c.interactive[0]
		c.interactive = c.interactive[1:]
		if err := e.Start(j, t, e.RateTable(j).Max()); err != nil {
			panic(err)
		}
	case len(c.paused) > 0:
		t := c.paused[len(c.paused)-1]
		c.paused = c.paused[:len(c.paused)-1] // it leaves the waiting set
		level := c.env.LevelFor(1 + c.waiting())
		if err := e.Start(j, t, level); err != nil {
			panic(err)
		}
	case len(c.queue) > 0:
		entry := c.queue[0]
		c.queue = append(c.queue[:0], c.queue[1:]...)
		// Backward position counts itself plus everything still
		// waiting behind it.
		level := c.env.LevelFor(1 + c.waiting())
		if err := c.sched.Delete(entry.h); err != nil {
			panic(err)
		}
		if err := e.Start(j, entry.ts, level); err != nil {
			panic(err)
		}
	}
	l.noteQueueDepth(j)
}

// OnCompletion implements sim.Policy.
func (l *LMC) OnCompletion(e *sim.Engine, coreID int, done *sim.TaskState) {
	if !done.Task.Interactive {
		l.compSum += done.Task.Cycles
		l.compN++
	}
	l.dispatch(e, coreID)
}

// OnTick implements sim.Policy.
func (l *LMC) OnTick(*sim.Engine) {}

// QueuedCost returns the maintained queue cost of core j, for tests.
func (l *LMC) QueuedCost(j int) float64 {
	if j < 0 || j >= len(l.cores) {
		panic(fmt.Sprintf("online: core %d out of range", j))
	}
	return l.cores[j].sched.Cost()
}
