// Package core is the high-level facade over the paper's primary
// contribution: one type for batch-mode scheduling (Section III) and
// one for online-mode scheduling (Section IV), wired to the platform
// models and the simulator. Examples and tools that don't need the
// lower-level knobs use this API.
//
// Construct schedulers with New and functional options:
//
//	sched, err := core.New(params, plat,
//		core.WithMetrics(reg),
//		core.WithSink(rec))
//
// Every entry point takes a context.Context; canceling it aborts
// planning and simulation work with an error matching ErrCanceled.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dvfsched/internal/batch"
	"dvfsched/internal/envelope"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/online"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
)

// Sentinel errors, matchable via errors.Is. Detailed messages wrap
// these with %w.
var (
	// ErrNilPlatform is returned by New when the platform is nil.
	ErrNilPlatform = errors.New("core: nil platform")
	// ErrNotBatchable is returned by PlanBatch when a task cannot be
	// scheduled in batch mode (non-zero arrival, deadline, or
	// interactive).
	ErrNotBatchable = errors.New("core: task not schedulable in batch mode")
	// ErrEmptySubmission is returned by OnlineSession.Submit for an
	// empty task batch.
	ErrEmptySubmission = errors.New("core: empty submission")
	// ErrCoreOutOfRange is returned for core indices outside the
	// platform.
	ErrCoreOutOfRange = errors.New("core: core index out of range")
	// ErrCanceled is returned when an entry point is aborted by its
	// context; the underlying context error is wrapped too, so
	// errors.Is(err, context.Canceled) also holds for cancellations.
	ErrCanceled = errors.New("core: canceled")
	// ErrNoCores is planning's empty-core-set error, re-exported from
	// package batch.
	ErrNoCores = batch.ErrNoCores
)

// wrapCanceled tags context-caused failures with ErrCanceled so
// callers (and the server's HTTP error mapping) can match them without
// knowing which layer noticed the cancellation first.
func wrapCanceled(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return err
}

// Scheduler holds the pricing and platform a user schedules against,
// plus the execution knobs set through Options.
type Scheduler struct {
	params model.CostParams
	plat   *platform.Platform

	sink    obs.Sink
	metrics *obs.Registry
	cache   *envelope.Cache
	clock   func() time.Time
}

// Option customizes a Scheduler at construction.
type Option func(*Scheduler)

// WithSink routes the simulator's structured event stream (task
// lifecycle, DVFS changes, core transitions) to sink during
// ExecuteBatch, RunOnline and online sessions.
func WithSink(sink obs.Sink) Option {
	return func(s *Scheduler) { s.sink = sink }
}

// WithMetrics collects scheduler-side counters and histograms
// (marginal-cost evaluations, dynamic-structure update latencies) into
// reg during online runs.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Scheduler) { s.metrics = reg }
}

// WithEnvelopeCache uses c to memoize envelope.Compute results. The
// default is the process-wide envelope.Shared() cache; passing nil
// disables caching and recomputes envelopes on every use.
func WithEnvelopeCache(c *envelope.Cache) Option {
	return func(s *Scheduler) { s.cache = c }
}

// WithClock injects the wall clock used to time dynamic-structure
// updates into the "rangetree.update_ns" histogram. The default is
// time.Now; passing nil keeps runs free of real-time reads and skips
// the histogram.
func WithClock(now func() time.Time) Option {
	return func(s *Scheduler) { s.clock = now }
}

// New builds a scheduler for the given cost constants and platform.
// The positional two-argument form remains valid and is equivalent to
// passing no options.
func New(params model.CostParams, plat *platform.Platform, opts ...Option) (*Scheduler, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if plat == nil {
		return nil, ErrNilPlatform
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	s := &Scheduler{
		params: params,
		plat:   plat,
		cache:  envelope.Shared(),
		clock:  time.Now,
	}
	for _, o := range opts {
		if o != nil {
			o(s)
		}
	}
	return s, nil
}

// Params returns the cost constants.
func (s *Scheduler) Params() model.CostParams { return s.params }

// Platform returns the platform.
func (s *Scheduler) Platform() *platform.Platform { return s.plat }

// CheckBatchable returns the ErrNotBatchable error PlanBatch gives
// tasks, naming the first task that arrives after 0, has a deadline or
// is interactive; nil when PlanBatch accepts them all.
func CheckBatchable(tasks model.TaskSet) error {
	for _, t := range tasks {
		if t.Arrival != 0 {
			return fmt.Errorf("%w: task %d arrives at %v; batch tasks arrive at 0", ErrNotBatchable, t.ID, t.Arrival)
		}
		if t.HasDeadline() {
			return fmt.Errorf("%w: task %d has a deadline; use package deadline", ErrNotBatchable, t.ID)
		}
		if t.Interactive {
			return fmt.Errorf("%w: task %d is interactive; use RunOnline", ErrNotBatchable, t.ID)
		}
	}
	return nil
}

// PlanBatch computes the cost-optimal batch schedule for tasks without
// deadlines (Workload Based Greedy, Theorem 5). All tasks must have
// Arrival 0 and no deadline (CheckBatchable). Canceling ctx aborts
// planning with an error matching ErrCanceled.
func (s *Scheduler) PlanBatch(ctx context.Context, tasks model.TaskSet) (*batch.Plan, error) {
	if err := CheckBatchable(tasks); err != nil {
		return nil, err
	}
	cores := make([]batch.CoreSpec, s.plat.NumCores())
	for i, rt := range s.plat.Cores {
		cores[i] = batch.CoreSpec{Rates: rt}
	}
	plan, err := batch.WBGContext(ctx, s.params, cores, tasks, s.cache)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return plan, nil
}

// ExecuteBatch plans tasks with WBG and executes the plan on the
// platform's simulator, returning the measured result.
func (s *Scheduler) ExecuteBatch(ctx context.Context, tasks model.TaskSet) (*sim.Result, error) {
	plan, err := s.PlanBatch(ctx, tasks)
	if err != nil {
		return nil, err
	}
	fp, err := sim.NewFixedPlan(plan)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, sim.Config{Platform: s.plat, Policy: fp, Sink: s.sink}, tasks, s.params)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return res, nil
}

// newLMC builds the Least Marginal Cost policy wired to the
// scheduler's observability knobs and envelope cache.
func (s *Scheduler) newLMC() (*online.LMC, error) {
	lmc, err := online.NewLMC(s.params)
	if err != nil {
		return nil, err
	}
	lmc.Metrics = s.metrics
	lmc.Clock = s.clock
	lmc.Cache = s.cache
	return lmc, nil
}

// RunOnline schedules an online trace (mixed interactive and
// non-interactive tasks with arbitrary arrivals) with Least Marginal
// Cost on the platform's simulator.
func (s *Scheduler) RunOnline(ctx context.Context, tasks model.TaskSet) (*sim.Result, error) {
	lmc, err := s.newLMC()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, sim.Config{Platform: s.plat, Policy: lmc, Sink: s.sink}, tasks, s.params)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return res, nil
}

// DominatingRanges returns the dominating position ranges of core i:
// which frequency a task should use as a function of how much work
// runs after it (Algorithm 1).
func (s *Scheduler) DominatingRanges(i int) (*envelope.Envelope, error) {
	if i < 0 || i >= s.plat.NumCores() {
		return nil, fmt.Errorf("%w: core %d", ErrCoreOutOfRange, i)
	}
	if s.cache != nil {
		return s.cache.Get(s.params, s.plat.Cores[i])
	}
	return envelope.Compute(s.params, s.plat.Cores[i])
}
