package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/bench/loadgen"
)

// window is a measured phase: operations sent inside it are recorded.
type window struct{ from, to time.Time }

func newWindow(from time.Time, seconds float64) window {
	return window{from, from.Add(time.Duration(seconds * float64(time.Second)))}
}

func (w window) has(t time.Time) bool { return !t.Before(w.from) && t.Before(w.to) }

// outcome is what a workload measured.
type outcome struct {
	// primary is the latency kind the request metrics summarize; client
	// spans whose kind starts with it are the per-layer sample.
	primary string
	// rec holds client-observed latencies in ms by operation kind, the
	// echo's under "echo", each stamped with when its operation was due
	// (open loop) or sent (closed loop), and the process's resident set
	// in MB under "rss", stamped with when it was read.
	rec samples
	// reqPhase is where the primary latencies are measured, tasksPhase
	// where the throughput and the resident set are.
	reqPhase, tasksPhase window
	// tasks counts the tasks acked by requests sent inside tasksPhase.
	tasks atomic.Int64
	// open holds the operations of the kept open-loop attempt, and
	// attempts how many were made; nil and 0 for closed-loop workloads.
	open     []loadgen.Op
	attempts int
	// submits counts acked submit requests over the whole run.
	submits atomic.Int64
	// allocKBPerReq and gcPerS describe the process's allocation over
	// the load, warm-up included. The resident set is sampled into rec
	// under "rss".
	allocKBPerReq, gcPerS float64
}

// epoch is the origin of point times.
var epoch = time.Now()

// point is one recorded value and when its operation was due or sent,
// as an offset from epoch: a time.Time holds a pointer, which the
// garbage collector would have to scan in every recorded point.
type point struct {
	at time.Duration
	v  float64
}

// samples are recorded values by kind.
type samples struct {
	mu sync.Mutex
	by map[string][]point
}

func (s *samples) add(kind string, at time.Time, v float64) {
	s.mu.Lock()
	if s.by == nil {
		s.by = map[string][]point{}
	}
	s.by[kind] = append(s.by[kind], point{at.Sub(epoch), v})
	s.mu.Unlock()
}

func (s *samples) points(kind string) []point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]point(nil), s.by[kind]...)
}

func (s *samples) values(kind string) []float64 {
	pts := s.points(kind)
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.v
	}
	return out
}

// within returns the values of kind stamped inside win.
func (s *samples) within(kind string, win window) []float64 {
	var out []float64
	for _, p := range s.points(kind) {
		if win.has(epoch.Add(p.at)) {
			out = append(out, p.v)
		}
	}
	return out
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; v is sorted in place. 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (v[i+1]-v[i])*(pos-float64(i))
}

// endToEnd derives the gated metrics: the median latency of the
// primary request over the median echo of the same phase, the tasks
// acked per second of work slots times the median echo latency in
// seconds, the median setup time and the median resident set during
// the throughput phase. That phase is a closed loop, in which sessions
// are retired as they fill; an open loop holds its sessions until it
// ends, and is run again when it falls behind, so its resident set
// would depend on how many attempts it took.
func (b *bench) endToEnd(res *outcome) ([]metric, error) {
	req := res.rec.within(res.primary, res.reqPhase)
	echoReq := res.rec.within("echo", res.reqPhase)
	echoTasks := res.rec.within("echo", res.tasksPhase)
	rss := res.rec.within("rss", res.tasksPhase)
	if len(req) == 0 || len(echoReq) == 0 || len(echoTasks) == 0 {
		return nil, fmt.Errorf("measured %d %s latencies and %d and %d echoes; every phase needs some", len(req), res.primary, len(echoReq), len(echoTasks))
	}
	return []metric{
		{"req_p50_over_echo", quantile(req, 0.5) / quantile(echoReq, 0.5), "ratio", len(req)},
		{"tasks_per_echo", tasksPerS(res) * quantile(echoTasks, 0.5) / 1e3, "tasks/echo", len(echoTasks)},
		{"setup_s", quantile(append([]float64(nil), b.setupS...), 0.5), "s", len(b.setupS)},
		{"rss_mb", quantile(rss, 0.5), "MB", len(rss)},
	}, nil
}

// tasksPerS is the tasks acked per second of the throughput phase's
// work slots.
func tasksPerS(res *outcome) float64 {
	work, _ := slotTime(res.tasksPhase)
	return float64(res.tasks.Load()) / work.Seconds()
}

// clientOpMetrics are ungated client-observed times: the gated ones'
// raw parts, the p99 of the primary request over its phase — printed
// only with the 1000 samples that put ten beyond it, 0 otherwise — and
// the medians of the workload-specific operations, 0 where the
// workload issues none.
func clientOpMetrics(res *outcome) []metric {
	req := res.rec.within(res.primary, res.reqPhase)
	echo := res.rec.within("echo", res.reqPhase)
	out := []metric{
		{"req_p50_ms", quantile(req, 0.5), "ms", len(req)},
		{"echo_p50_ms", quantile(echo, 0.5), "ms", len(echo)},
		{"tasks_per_s", tasksPerS(res), "tasks/s", int(res.tasks.Load())},
	}
	p99 := metric{"req_p99_ms", 0, "ms", 0}
	if len(req) >= 1000 {
		p99.value, p99.n = quantile(req, 0.99), len(req)
	}
	out = append(out, p99)
	for _, kind := range []string{"drain", "events", "migrate", "plan_hit", "plan_miss"} {
		v := res.rec.values(kind)
		out = append(out, metric{kind + "_p50_ms", quantile(v, 0.5), "ms", len(v)})
	}
	return out
}

// maxOpenAttempts is how many times an open-loop phase is run while its
// generator does not keep its schedule. With a busy loop taking one of
// two cores, about half the attempts failed, each independently of the
// last; on a quiet machine none did. When every attempt fails, the run
// keeps the best one and reports its lag: a slow spell of the machine
// is not a wrong answer, so it must not fail the run.
const maxOpenAttempts = 3

// lagP99Ms is the p99 of how late the sent operations left, in ms.
func lagP99Ms(ops []loadgen.Op) float64 {
	var lags []float64
	for _, d := range loadgen.Lags(ops) {
		lags = append(lags, float64(d)/1e6)
	}
	return quantile(lags, 0.99)
}

// openValid reports whether an open loop kept its schedule: it sent at
// least 99% of its operations, with a lag p99 of at most maxLagMs.
// Otherwise its latencies would include queueing in the benchmark's
// own senders.
func openValid(ops []loadgen.Op, maxLagMs float64) bool {
	return loadgen.SentFrac(ops) >= 0.99 && lagP99Ms(ops) <= maxLagMs
}

// betterOpen reports whether open-loop attempt a kept its schedule
// better than b: it sent more of it, or as much with a lower lag p99.
func betterOpen(a, b []loadgen.Op) bool {
	fa, fb := loadgen.SentFrac(a), loadgen.SentFrac(b)
	if fa != fb { //dvfslint:allow floatcmp both are counts over the same schedule length, so equal shares are bit-equal
		return fa > fb
	}
	return lagP99Ms(a) < lagP99Ms(b)
}

// loadgenMetrics report how faithfully the kept open-loop attempt kept
// its schedule and how many attempts were made. A closed loop is never
// late.
func loadgenMetrics(res *outcome) []metric {
	frac := 1.0
	if res.open != nil {
		frac = loadgen.SentFrac(res.open)
	}
	return []metric{
		{"loadgen.lag_p99_ms", lagP99Ms(res.open), "ms", len(res.open)},
		{"loadgen.sent_frac", frac, "ratio", len(res.open)},
		{"loadgen.attempts", float64(res.attempts), "count", res.attempts},
	}
}

// memMark is a point in the run's allocation history.
type memMark struct {
	alloc uint64
	gc    uint32
	reqs  int64
	at    time.Time
}

func (b *bench) mark() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.NumGC, b.attempted.Load(), time.Now()}
}

// measureLoad runs load while sampling the resident set into res every
// 100ms, then records the load's allocation in res.
func (b *bench) measureLoad(res *outcome, load func()) error {
	from := b.mark()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var rssErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case at := <-tick.C:
				mb, err := residentMB()
				if err != nil {
					rssErr = err
					return
				}
				res.rec.add("rss", at, mb)
			}
		}
	}()
	load()
	close(done)
	wg.Wait()
	to := b.mark()
	if n := to.reqs - from.reqs; n > 0 {
		res.allocKBPerReq = float64(to.alloc-from.alloc) / 1024 / float64(n)
	}
	res.gcPerS = float64(to.gc-from.gc) / to.at.Sub(from.at).Seconds()
	return rssErr
}

// residentMB reads the process's resident set (VmRSS) in MB.
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmRSS %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmRSS in /proc/self/status")
}
