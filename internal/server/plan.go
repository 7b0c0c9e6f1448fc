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
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
)

// planner is the stateless planning plane. A miss runs WBG on the
// request's own goroutine while it holds one of a fixed number of
// slots; a hit is served from an LRU result cache. A cache entry is the
// plan's pre-encoded cache-hit HTTP body as a []byte ("cached":true,
// trailing newline included), so the hit path writes stored bytes
// without touching an encoder.
type planner struct {
	cache *lruCache

	// slots is a semaphore: a plan computes only while it holds one.
	slots chan struct{}
	// waiting counts the callers waiting for a slot.
	waiting    atomic.Int32
	maxWaiting int32

	plans      *obs.Counter
	aborts     *obs.Counter
	hits       *obs.Counter
	misses     *obs.Counter
	queueDepth *obs.Gauge

	// onComputeStart, when set by a test, runs just before planning
	// begins, under the caller's slot and receiving its context — the
	// hook cancellation tests use to hold a plan verifiably in flight
	// until the request is canceled.
	onComputeStart func(ctx context.Context)
}

// newPlanner sizes the slots at GOMAXPROCS, the parallelism planning
// can use, and the waiting room at four times that.
func newPlanner(cacheSize int, reg *obs.Registry) *planner {
	procs := runtime.GOMAXPROCS(0)
	return &planner{
		cache:      newLRUCache(cacheSize),
		slots:      make(chan struct{}, procs),
		maxWaiting: int32(4 * procs),
		plans:      reg.Counter(obs.ServerPlans),
		aborts:     reg.Counter(obs.ServerPlansAborted),
		hits:       reg.Counter(obs.ServerPlanCacheHits),
		misses:     reg.Counter(obs.ServerPlanCacheMisses),
		queueDepth: reg.Gauge(obs.ServerPlanQueueDepth),
	}
}

// plan computes a cache miss under one of the planner's slots. A
// caller that finds maxWaiting callers waiting already gets ErrBusy
// (HTTP 429), never an unbounded wait; a caller whose context ends
// while it waits gets the context error and never plans.
func (p *planner) plan(ctx context.Context, key string, params model.CostParams, plat *platform.Platform, tasks model.TaskSet) (PlanResponse, error) {
	if p.waiting.Add(1) > p.maxWaiting {
		p.waiting.Add(-1)
		return PlanResponse{}, fmt.Errorf("%w: plan queue full (%d queued)", ErrBusy, p.maxWaiting)
	}
	p.queueDepth.Add(1)
	select {
	case p.slots <- struct{}{}:
		defer func() { <-p.slots }()
	case <-ctx.Done():
	}
	p.waiting.Add(-1)
	p.queueDepth.Add(-1)
	// Checked after the select, which picks either case when a slot
	// frees as the context ends.
	if err := ctx.Err(); err != nil {
		return PlanResponse{}, err
	}
	return p.compute(ctx, key, params, plat, tasks)
}

// compute runs the batch planner through the core facade and shapes
// the wire response.
func (p *planner) compute(ctx context.Context, key string, params model.CostParams, plat *platform.Platform, tasks model.TaskSet) (PlanResponse, error) {
	if p.onComputeStart != nil {
		p.onComputeStart(ctx)
	}
	sched, err := core.New(params, plat)
	if err != nil {
		return PlanResponse{}, err
	}
	plan, err := sched.PlanBatch(ctx, tasks)
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
	p.cache.put(key, hit)
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
	resp, err := s.planner.plan(r.Context(), key, params, plat, tasks)
	if err != nil {
		s.writeAPIError(w, err, http.StatusBadRequest)
		return
	}
	writePlanResponse(w, resp)
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
