// Command dvfsload is the smoke client and load generator for
// dvfschedd. It fires N concurrent clients at both API planes and
// cross-checks the service against the in-process scheduler:
//
//   - planning plane: each client posts a seeded random batch workload
//     to /v1/plan and requires the returned total cost to be
//     byte-identical to a direct core.Scheduler PlanBatch run of the
//     same workload, then reposts it and requires a cache hit;
//   - session plane: each client opens an online session, submits
//     arrivals in batches, drains it with DELETE, fetches the event
//     trace, and holds it to audit.CheckTrace: every task exactly once,
//     a byte-identical serial rebuild, and a trace that prices to the
//     drain cost.
//
// Beyond the default oracle mode, -mode closed and -mode open turn it
// into a latency harness for the session submit path: closed keeps
// -clients requests in flight back to back (saturation throughput);
// open schedules request k at start + k/-rate and measures latency
// from that due time, so queueing delay appears in the quantiles
// instead of slowing the generator (coordinated omission); it reports
// the share of requests sent and its own send lag, and fails if it
// sent fewer than scheduled. Both report throughput and p50/p95/p99
// and can write the result as JSON with -out.
//
// Usage:
//
//	dvfsload -addr http://127.0.0.1:8080 [-clients 8] [-plan-tasks 24]
//	         [-session-tasks 40] [-batch 10] [-seed 1]
//	         [-cores 4] [-platform table2] [-re 0.1] [-rt 0.4]
//	         [-mode oracle|closed|open] [-duration 10s] [-rate 200]
//	         [-sessions 1] [-out load.json]
//
// Exit status is non-zero if any check fails.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dvfsched/internal/audit"
	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dvfsload: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// options carries the parsed flags to the client goroutines.
type options struct {
	addr         string
	clients      int
	planTasks    int
	sessionTasks int
	batch        int
	seed         int64
	spec         server.PlatformSpec
}

// clientStats is one client's scorecard.
type clientStats struct {
	plans     int
	cacheHits int
	sessions  int
	tasks     int
	events    int
	err       error
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dvfsload", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "http://127.0.0.1:8080", "base URL of dvfschedd")
		clients      = fs.Int("clients", 8, "concurrent clients")
		planTasks    = fs.Int("plan-tasks", 24, "tasks per batch plan request")
		sessionTasks = fs.Int("session-tasks", 40, "tasks per online session")
		batch        = fs.Int("batch", 10, "tasks per session submit")
		seed         = fs.Int64("seed", 1, "workload seed (client i uses seed+i)")
		cores        = fs.Int("cores", 4, "cores per requested platform")
		platName     = fs.String("platform", "table2", "rate table: table2, i7, or exynos")
		re           = fs.Float64("re", 0.1, "Re, cents per joule")
		rt           = fs.Float64("rt", 0.4, "Rt, cents per second of waiting")
		mode         = fs.String("mode", "oracle", "oracle (correctness cross-check) or closed/open (latency harness)")
		duration     = fs.Duration("duration", 10*time.Second, "measurement window for closed/open loop")
		rate         = fs.Float64("rate", 200, "offered requests/second in open loop")
		sessions     = fs.Int("sessions", 1, "session shards to spread closed/open-loop load over")
		out          = fs.String("out", "", "write the closed/open-loop report as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := options{
		addr:         *addr,
		clients:      *clients,
		planTasks:    *planTasks,
		sessionTasks: *sessionTasks,
		batch:        *batch,
		seed:         *seed,
		spec:         server.PlatformSpec{Cores: *cores, Platform: *platName, Re: *re, Rt: *rt},
	}
	if opts.clients <= 0 {
		return fmt.Errorf("need at least one client")
	}
	switch *mode {
	case "oracle":
	case "closed", "open":
		return runLoadHarness(opts, loadOptions{
			mode:     *mode,
			duration: *duration,
			rate:     *rate,
			sessions: *sessions,
			out:      *out,
		}, w)
	default:
		return fmt.Errorf("unknown -mode %q (want oracle, closed, or open)", *mode)
	}

	start := time.Now()
	stats := make([]clientStats, opts.clients)
	var wg sync.WaitGroup
	for i := 0; i < opts.clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = runClient(opts, i)
		}(i)
	}
	wg.Wait()

	var total clientStats
	failed := 0
	for i, st := range stats {
		total.plans += st.plans
		total.cacheHits += st.cacheHits
		total.sessions += st.sessions
		total.tasks += st.tasks
		total.events += st.events
		if st.err != nil {
			failed++
			fmt.Fprintf(w, "client %d: FAIL: %v\n", i, st.err)
		}
	}
	fmt.Fprintf(w, "%d clients in %.2fs: %d plans (%d cached), %d sessions drained, %d tasks, %d events replayed\n",
		opts.clients, time.Since(start).Seconds(), total.plans, total.cacheHits, total.sessions, total.tasks, total.events)
	if snap, err := fetchMetrics(opts.addr); err == nil {
		fmt.Fprintf(w, "server: %.0f requests, %.0f rejected, cache %.0f/%.0f hit/miss\n",
			snap.Counters[obs.ServerRequests], snap.Counters[obs.ServerRejected],
			snap.Counters[obs.ServerPlanCacheHits], snap.Counters[obs.ServerPlanCacheMisses])
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d clients failed", failed, opts.clients)
	}
	fmt.Fprintln(w, "all checks passed")
	return nil
}

// runClient exercises both planes once and verifies every answer.
func runClient(opts options, id int) clientStats {
	var st clientStats
	st.err = func() error {
		rng := rand.New(rand.NewSource(opts.seed + int64(id)))
		if err := checkPlanPlane(opts, rng, &st); err != nil {
			return fmt.Errorf("plan plane: %w", err)
		}
		if err := checkSessionPlane(opts, rng, &st); err != nil {
			return fmt.Errorf("session plane: %w", err)
		}
		return nil
	}()
	return st
}

// checkPlanPlane posts one batch workload and cross-checks the cost
// against a direct in-process run, then reposts it for a cache hit.
func checkPlanPlane(opts options, rng *rand.Rand, st *clientStats) error {
	recs := make([]trace.Record, opts.planTasks)
	for i := range recs {
		recs[i] = trace.Record{ID: i, Cycles: 1 + rng.Float64()*120}
	}
	req := server.PlanRequest{PlatformSpec: opts.spec, Tasks: recs}

	var first server.PlanResponse
	if err := postJSON(opts.addr+"/v1/plan", req, &first); err != nil {
		return err
	}
	st.plans++

	want, err := directPlanCost(opts.spec, recs)
	if err != nil {
		return err
	}
	got := strconv.FormatFloat(first.TotalCost, 'g', -1, 64)
	if got != want {
		return fmt.Errorf("service cost %s != direct scheduler cost %s", got, want)
	}

	var second server.PlanResponse
	if err := postJSON(opts.addr+"/v1/plan", req, &second); err != nil {
		return err
	}
	st.plans++
	if !second.Cached {
		return fmt.Errorf("identical repost was not served from cache")
	}
	if !model.ApproxEq(second.TotalCost, first.TotalCost, model.DefaultEps) {
		return fmt.Errorf("cache changed the answer: %v vs %v", second.TotalCost, first.TotalCost)
	}
	st.cacheHits++
	return nil
}

// directPlanCost runs the same workload through the in-process
// facade and formats the total cost for byte comparison.
func directPlanCost(spec server.PlatformSpec, recs []trace.Record) (string, error) {
	rates, err := platform.RateTableByName(spec.Platform)
	if err != nil {
		return "", err
	}
	tasks := make(model.TaskSet, len(recs))
	for i, r := range recs {
		tasks[i] = r.Task()
	}
	sched, err := core.New(model.CostParams{Re: spec.Re, Rt: spec.Rt},
		platform.Homogeneous(spec.Cores, rates, platform.Ideal{}))
	if err != nil {
		return "", err
	}
	plan, err := sched.PlanBatch(context.Background(), tasks)
	if err != nil {
		return "", err
	}
	_, _, total := plan.Cost()
	return strconv.FormatFloat(total, 'g', -1, 64), nil
}

// checkSessionPlane drives one full session life cycle and audits the
// streamed trace against the drain report.
func checkSessionPlane(opts options, rng *rand.Rand, st *clientStats) error {
	var info server.SessionInfo
	if err := postJSON(opts.addr+"/v1/sessions", opts.spec, &info); err != nil {
		return err
	}
	base := opts.addr + "/v1/sessions/" + info.ID

	// Monotone arrivals, mixed sizes — an online stream in miniature.
	recs := make([]trace.Record, opts.sessionTasks)
	acked := make(map[int]bool, len(recs))
	clock := 0.0
	for i := range recs {
		clock += rng.Float64() * 2
		recs[i] = trace.Record{ID: i, Cycles: 0.5 + rng.Float64()*40, Arrival: clock}
		acked[i] = true
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Arrival < recs[j].Arrival })
	for startIdx := 0; startIdx < len(recs); startIdx += opts.batch {
		end := startIdx + opts.batch
		if end > len(recs) {
			end = len(recs)
		}
		var sub server.SubmitResponse
		if err := postJSON(base+"/tasks", server.SubmitRequest{Tasks: recs[startIdx:end]}, &sub); err != nil {
			return err
		}
		if sub.Accepted != end-startIdx {
			return fmt.Errorf("submit accepted %d of %d", sub.Accepted, end-startIdx)
		}
	}

	var drain server.DrainResponse
	if err := doJSON("DELETE", base, nil, &drain, http.StatusOK); err != nil {
		return err
	}
	if drain.Tasks != len(recs) {
		return fmt.Errorf("drained %d tasks, submitted %d", drain.Tasks, len(recs))
	}
	st.sessions++
	st.tasks += drain.Tasks

	events, err := fetchEvents(base + "/events")
	if err != nil {
		return err
	}
	st.events += len(events)
	if err := audit.CheckTrace(opts.spec, events, acked, &drain); err != nil {
		return err
	}
	return doJSON("DELETE", base, nil, nil, http.StatusNoContent)
}

// postJSON posts a body and decodes a 2xx JSON reply, retrying briefly
// on backpressure (429) so load spikes don't abort the run.
func postJSON(url string, body, out any) error {
	return doJSON("POST", url, body, out, 0)
}

func doJSON(method, url string, body, out any, wantStatus int) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, url, bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusTooManyRequests || attempt >= 20 {
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	if wantStatus != 0 {
		ok = resp.StatusCode == wantStatus
	}
	if !ok {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil && len(data) > 0 {
		return json.Unmarshal(data, out)
	}
	return nil
}

// fetchEvents streams and parses a session's JSONL event trace.
func fetchEvents(url string) ([]obs.Event, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return obs.ReadJSONL(resp.Body)
}

// fetchMetrics grabs the server's registry snapshot.
func fetchMetrics(addr string) (*obs.Snapshot, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}
