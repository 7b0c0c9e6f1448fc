package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
)

// planJob is one queued planning request.
type planJob struct {
	ctx    context.Context
	key    string
	params model.CostParams
	plat   *platform.Platform
	tasks  model.TaskSet
	reply  chan planReply
}

type planReply struct {
	resp PlanResponse
	err  error
}

// planner is the stateless planning plane: a bounded queue feeding a
// fixed worker pool, fronted by a striped LRU result cache. A cache
// entry is the plan's pre-encoded cache-hit HTTP body as a []byte
// ("cached":true, trailing newline included), so the hit path writes
// stored bytes without touching an encoder. Queue overflow is surfaced
// to callers as backpressure (HTTP 429), never as unbounded memory
// growth.
type planner struct {
	queue chan planJob
	cache *stripedCache

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup

	plans      *obs.Counter
	aborts     *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter
	queueDepth *obs.Gauge

	// onComputeStart, when set by a test, runs on the worker goroutine
	// just before planning begins, receiving the job's context — the
	// hook cancellation tests use to hold a plan verifiably in flight
	// until the request is canceled.
	onComputeStart func(ctx context.Context)
}

// newPlanner starts workers goroutines over a queue of the given
// depth. A negative worker count starts none — jobs then queue until
// they are shed, which tests use to exercise backpressure.
func newPlanner(workers, queueDepth, cacheSize int, reg *obs.Registry) *planner {
	if workers < 0 {
		workers = 0
	}
	p := &planner{
		queue:      make(chan planJob, queueDepth),
		cache:      newStripedCache(cacheSize),
		closed:     make(chan struct{}),
		plans:      reg.Counter(obs.ServerPlans),
		aborts:     reg.Counter(obs.ServerPlansAborted),
		hits:       reg.Counter(obs.ServerPlanCacheHits),
		misses:     reg.Counter(obs.ServerPlanCacheMisses),
		queueDepth: reg.Gauge(obs.ServerPlanQueueDepth),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// close stops accepting work and waits for in-flight plans to finish.
func (p *planner) close() {
	p.closeOnce.Do(func() { close(p.closed) })
	p.wg.Wait()
}

func (p *planner) worker() {
	defer p.wg.Done()
	for {
		select {
		case <-p.closed:
			return
		case job := <-p.queue:
			p.queueDepth.Set(float64(len(p.queue)))
			resp, err := p.compute(job)
			select {
			case job.reply <- planReply{resp: resp, err: err}:
			case <-job.ctx.Done():
			}
		}
	}
}

// compute runs the batch planner through the core facade and shapes
// the wire response.
func (p *planner) compute(job planJob) (PlanResponse, error) {
	if p.onComputeStart != nil {
		p.onComputeStart(job.ctx)
	}
	sched, err := core.New(job.params, job.plat)
	if err != nil {
		return PlanResponse{}, err
	}
	plan, err := sched.PlanBatch(job.ctx, job.tasks)
	if err != nil {
		if errors.Is(err, core.ErrCanceled) {
			p.aborts.Inc()
		}
		return PlanResponse{}, err
	}
	eCost, tCost, total := plan.Cost()
	joules, makespan, turnaround := plan.EnergyTime()
	// JSON has no infinity: an overflowed total would be served, and
	// cached, as null, which a float64 client decodes as 0.
	for _, v := range [...]float64{eCost, tCost, total, joules, makespan, turnaround} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return PlanResponse{}, fmt.Errorf("plan totals overflow float64 (total cost %v, %v J, makespan %v s, turnaround sum %v s)", total, joules, makespan, turnaround)
		}
	}
	resp := PlanResponse{
		EnergyCost:     eCost,
		TimeCost:       tCost,
		TotalCost:      total,
		Joules:         joules,
		MakespanS:      makespan,
		TurnaroundSumS: turnaround,
	}
	// Encode the plan document once, compact, into a pooled buffer and
	// copy it into the cache-hit body, allocated once at its final size;
	// the miss response reuses the document bytes inside that body.
	bp := encBufPool.Get().(*[]byte)
	doc := plan.AppendJSON((*bp)[:0])
	n := len(planPrefix) + len(doc)
	hit := make([]byte, n, n+planTotalsMax)
	copy(hit, planPrefix)
	copy(hit[len(planPrefix):], doc)
	*bp = doc[:0]
	encBufPool.Put(bp)
	resp.Plan = hit[len(planPrefix):n:n]
	cached := resp
	cached.Cached = true
	hit = append(appendPlanTotals(hit, cached), '\n')
	p.plans.Inc()
	p.cache.put(job.key, hit)
	return resp, nil
}

// handlePlan is POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAPIError(w, ErrDraining, http.StatusServiceUnavailable)
		return
	}
	spec, tasks, err := decodePlan(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, params, plat, err := spec.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := checkTasks(tasks); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Canonicalize: WBG is invariant to input order (it sorts by
	// cycles), so hash and plan a by-ID ordering and identical
	// workloads in any order share a cache slot. The decoder built a
	// fresh slice, so sorting in place clones nothing.
	slices.SortStableFunc(tasks, func(a, b model.Task) int { return cmp.Compare(a.ID, b.ID) })
	// The key covers only what the planner reads, so a workload the
	// planner refuses must be refused before the lookup, not served the
	// plan of its batchable twin.
	if err := core.CheckBatchable(tasks); err != nil {
		s.writeAPIError(w, err, http.StatusBadRequest)
		return
	}
	key := planKey(spec, tasks)

	if v, ok := s.planner.cache.get(key); ok {
		s.planner.hits.Inc()
		// The entry is the pre-encoded body: after the decode, a cache
		// hit does no JSON work.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		//dvfslint:allow errcheck-hot header already sent; nothing useful to do on error
		_, _ = w.Write(v.([]byte))
		return
	}
	s.planner.misses.Inc()

	job := planJob{
		ctx:    r.Context(),
		key:    key,
		params: params,
		plat:   plat,
		tasks:  tasks,
		reply:  make(chan planReply, 1),
	}
	select {
	case s.planner.queue <- job:
		s.planner.queueDepth.Set(float64(len(s.planner.queue)))
	case <-s.planner.closed:
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	default:
		s.writeAPIError(w, fmt.Errorf("%w: plan queue full (%d queued)", ErrBusy, cap(s.planner.queue)), http.StatusTooManyRequests)
		return
	}
	select {
	case rep := <-job.reply:
		if rep.err != nil {
			s.writeAPIError(w, rep.err, http.StatusBadRequest)
			return
		}
		writePlanResponse(w, rep.resp)
	case <-s.planner.closed:
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
	case <-r.Context().Done():
		writeError(w, http.StatusServiceUnavailable, "request cancelled or timed out")
	}
}

// keyBufPool recycles the canonical-workload buffers planKey hashes.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1<<10)
		return &b
	},
}

// planKey hashes the canonical workload: platform spec plus every task
// field the planner reads, all floats as exact IEEE bits. Identical
// requests — and only identical requests — share a key. The canonical
// bytes are assembled in a pooled buffer and digested with the
// one-shot sha256.Sum256 (stack-allocated state), so the only
// allocation left is the returned key string itself.
func planKey(spec PlatformSpec, tasks model.TaskSet) string {
	bp := keyBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, spec.Platform...)
	b = append(b, 0)
	b = appendKeyU64(b, uint64(int64(spec.Cores)))
	b = appendKeyU64(b, math.Float64bits(spec.Re))
	b = appendKeyU64(b, math.Float64bits(spec.Rt))
	for _, t := range tasks {
		b = appendKeyU64(b, uint64(int64(t.ID)))
		b = append(b, t.Name...)
		b = append(b, 0)
		b = appendKeyU64(b, math.Float64bits(t.Cycles))
	}
	sum := sha256.Sum256(b)
	*bp = b[:0]
	keyBufPool.Put(bp)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// appendKeyU64 appends v little-endian, matching the layout the
// streaming hasher used so keys stay stable across the refactor.
func appendKeyU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
