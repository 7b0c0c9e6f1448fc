package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically non-decreasing float64 accumulator, safe
// for concurrent use. The value is stored as atomic bits so the
// engine hot path never takes a lock.
type Counter struct {
	bits atomic.Uint64
}

// Add increases the counter by d (d must be >= 0; negative deltas are
// ignored to preserve monotonicity).
func (c *Counter) Add(d float64) {
	if d < 0 || math.IsNaN(d) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-value-wins float64 cell, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets (upper-bound
// inclusive, like Prometheus). Safe for concurrent use: Observe is
// lock-free (per-bucket atomic counters plus CAS-accumulated sum and
// extremes), so it can sit on the serving hot path — every HTTP
// request and every replication frame observes into one — without
// serializing the observers. Snapshot reads each cell atomically;
// cross-field consistency (count vs sum) is only guaranteed on a
// quiescent histogram, which is when dumps and tests read it.
type Histogram struct {
	bounds  []float64       // ascending upper bounds; implicit +Inf last
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
}

// newHistogram builds a histogram over the given ascending bucket
// upper bounds.
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// casAdd accumulates d into a float64 stored as atomic bits.
func casAdd(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// casMin / casMax lower / raise a float64 stored as atomic bits.
func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	casAdd(&h.sumBits, v)
	casMin(&h.minBits, v)
	casMax(&h.maxBits, v)
}

// Merge folds a snapshot taken from another histogram with identical
// bucket bounds into this one — the aggregation path for per-worker
// local histograms (each goroutine observes into its own, then merges
// once), which keeps even the CAS traffic of Observe off the hottest
// loops. Safe to call concurrently with Observe and other Merges.
func (h *Histogram) Merge(s HistogramSnapshot) error {
	if len(s.Bounds) != len(h.bounds) {
		return fmt.Errorf("obs: merge: %d bounds into %d", len(s.Bounds), len(h.bounds))
	}
	for i, b := range s.Bounds {
		if b != h.bounds[i] { //dvfslint:allow floatcmp merge requires bit-identical bucket layouts, not approximate ones
			return fmt.Errorf("obs: merge: bound %d is %v, want %v", i, b, h.bounds[i])
		}
	}
	for i, c := range s.Counts {
		if c != 0 {
			h.counts[i].Add(c)
		}
	}
	if s.Count == 0 {
		return nil
	}
	h.count.Add(s.Count)
	casAdd(&h.sumBits, s.Sum)
	casMin(&h.minBits, s.Min)
	casMax(&h.maxBits, s.Max)
	return nil
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds; the final bucket is +Inf.
	Bounds []float64 `json:"bounds"`
	// Counts holds len(Bounds)+1 per-bucket observation counts.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the sum of observed values.
	Sum float64 `json:"sum"`
	// Min and Max are the observed extremes (0 when Count is 0).
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.minBits.Load())
		s.Max = math.Float64frombits(h.maxBits.Load())
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the bucket counts, interpolating linearly inside
// the covering bucket. The open-ended first and last buckets are
// bounded by the observed Min and Max, so p99 of a histogram whose
// tail lands in the +Inf bucket reports a finite value. Returns 0
// when the snapshot is empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	// A NaN q compares false against every bound below and would fall
	// through to Max; treat it like the q<0 clamp instead.
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next {
			cum = next
			continue
		}
		// The rank falls inside bucket i: [lo, hi].
		lo := s.Min
		if i > 0 {
			lo = math.Max(lo, s.Bounds[i-1])
		}
		hi := s.Max
		if i < len(s.Bounds) {
			hi = math.Min(hi, s.Bounds[i])
		}
		if hi <= lo {
			return lo
		}
		return lo + (hi-lo)*(rank-cum)/float64(c)
	}
	return s.Max
}

// Registry is a named collection of counters, gauges and histograms.
// Metric lookup takes a read lock; the returned metric handles are
// lock-free (counters, gauges) or internally locked (histograms), so
// callers should hold handles across the hot path instead of
// re-resolving names per event.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given name, creating it
// with the given bucket upper bounds on first use (later calls reuse
// the existing buckets and ignore the argument).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// serialization. Maps marshal with sorted keys, so output is
// deterministic for deterministic runs.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// sortedKeys returns m's keys in ascending order, so dump paths visit
// metrics deterministically regardless of map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for name := range m {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot copies every metric's current value. Metrics are read in
// sorted name order, so two snapshots of the same quiescent registry
// are built identically.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for _, name := range sortedKeys(r.counters) {
		s.Counters[name] = r.counters[name].Value()
	}
	for _, name := range sortedKeys(r.gauges) {
		s.Gauges[name] = r.gauges[name].Value()
	}
	for _, name := range sortedKeys(r.histograms) {
		s.Histograms[name] = r.histograms[name].Snapshot()
	}
	return s
}

// WriteJSON serializes a snapshot of the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal metrics: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Metric name helpers, so emitters and consumers agree on the schema.

// CoreMetric returns the per-core metric name "sim.core<i>.<field>".
func CoreMetric(core int, field string) string {
	return fmt.Sprintf("sim.core%d.%s", core, field)
}

// turnaroundBuckets spans interactive sub-second responses through
// hour-long batch turnarounds, in seconds.
var turnaroundBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}

// ExpBuckets returns n geometrically spaced histogram bounds starting
// at start (start > 0, factor > 1): the standard layout for latency
// distributions, whose interesting structure spans orders of
// magnitude. The load harness uses it for client-side latencies.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// MetricsSink derives the standard simulator metrics from the event
// stream and feeds them into a Registry:
//
//	sim.tasks.arrived / started / preempted / completed   counters
//	sim.tasks.interactive_arrived                          counter
//	sim.energy_j                                           counter (J)
//	sim.dvfs.switches                                      counter
//	sim.active_cores                                       gauge
//	sim.core<i>.busy_seconds                               counter (s)
//	sim.core<i>.energy_j                                   counter (J)
//	sim.core<i>.switches                                   counter
//	sim.turnaround_s                                       histogram (s)
//
// Busy time and per-core energy are attributed when a core returns to
// idle (preempt or complete), so gauges lag mid-run by design.
type MetricsSink struct {
	reg *Registry

	arrived, started, preempted, completed *Counter
	interactiveArrived                     *Counter
	energy                                 *Counter
	switches                               *Counter
	activeCores                            *Gauge
	turnaround                             *Histogram

	arrivals    map[int]float64 // task -> arrival time
	startAt     map[int]float64 // core -> start time of current run
	startEnergy map[int]float64 // core -> task's cumulative J at start
}

// NewMetricsSink returns a sink feeding reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		reg:                reg,
		arrived:            reg.Counter("sim.tasks.arrived"),
		started:            reg.Counter("sim.tasks.started"),
		preempted:          reg.Counter("sim.tasks.preempted"),
		completed:          reg.Counter("sim.tasks.completed"),
		interactiveArrived: reg.Counter("sim.tasks.interactive_arrived"),
		energy:             reg.Counter("sim.energy_j"),
		switches:           reg.Counter("sim.dvfs.switches"),
		activeCores:        reg.Gauge("sim.active_cores"),
		turnaround:         reg.Histogram("sim.turnaround_s", turnaroundBuckets),
		arrivals:           map[int]float64{},
		startAt:            map[int]float64{},
		startEnergy:        map[int]float64{},
	}
}

// Registry returns the registry the sink feeds.
func (m *MetricsSink) Registry() *Registry { return m.reg }

// Emit implements Sink. Emit is driven by the single-goroutine engine
// loop; the sink's own maps are not locked, but all registry writes
// are safe for concurrent readers.
func (m *MetricsSink) Emit(ev Event) {
	switch ev.Kind {
	case KindArrival:
		m.arrived.Inc()
		if ev.Interactive {
			m.interactiveArrived.Inc()
		}
		m.arrivals[ev.Task] = ev.T
	case KindStart:
		m.started.Inc()
		m.startAt[ev.Core] = ev.T
		m.startEnergy[ev.Core] = ev.Energy
	case KindPreempt:
		m.preempted.Inc()
		m.settleCore(ev)
	case KindComplete:
		m.completed.Inc()
		m.settleCore(ev)
		if at, ok := m.arrivals[ev.Task]; ok {
			m.turnaround.Observe(ev.T - at)
		}
	case KindDVFS:
		m.switches.Inc()
		m.reg.Counter(CoreMetric(ev.Core, "switches")).Inc()
	case KindCoreActive:
		m.activeCores.Add(1)
	case KindCoreIdle:
		m.activeCores.Add(-1)
	}
}

// settleCore attributes the finished occupancy's busy time and energy
// to the core.
func (m *MetricsSink) settleCore(ev Event) {
	if at, ok := m.startAt[ev.Core]; ok {
		m.reg.Counter(CoreMetric(ev.Core, "busy_seconds")).Add(ev.T - at)
		delete(m.startAt, ev.Core)
	}
	if e0, ok := m.startEnergy[ev.Core]; ok {
		d := ev.Energy - e0
		m.reg.Counter(CoreMetric(ev.Core, "energy_j")).Add(d)
		m.energy.Add(d)
		delete(m.startEnergy, ev.Core)
	}
}
