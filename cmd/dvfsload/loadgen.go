package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// loadOptions carries the latency-harness flags (-mode closed|open).
type loadOptions struct {
	mode     string
	duration time.Duration
	rate     float64
	sessions int
	out      string
}

// loadReport is the harness's machine-readable result.
type loadReport struct {
	Mode      string  `json:"mode"`
	Clients   int     `json:"clients"`
	Sessions  int     `json:"sessions"`
	DurationS float64 `json:"duration_s"`
	// OfferedRate is the open-loop target in requests/second (0 in
	// closed loop, where clients submit as fast as replies return).
	OfferedRate float64 `json:"offered_rate,omitempty"`
	// SentFrac is the share of the open loop's scheduled requests that
	// were sent; below 1 the run fails.
	SentFrac float64 `json:"sent_frac,omitempty"`
	// LagP99Ms is the open loop's p99 send lag: how long after its due
	// time a request left the generator.
	LagP99Ms   float64 `json:"lag_p99_ms,omitempty"`
	Requests   int64   `json:"requests"`
	Rejected   int64   `json:"rejected"`
	Errors     int64   `json:"errors"`
	Throughput float64 `json:"throughput_rps"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
}

// latencyBuckets spans ~50µs loopback submits through multi-second
// stalls; 48 exponential buckets keep the p99 interpolation tight.
var latencyBuckets = obs.ExpBuckets(5e-5, 1.3, 48)

// openGrace is how long after the open loop's window a late request
// may still be sent; later ones count as not sent and fail the run.
const openGrace = time.Second

// runLoadHarness drives the session plane's submit path and reports
// throughput and latency quantiles. Closed loop: each client keeps one
// request in flight, so the measured rate is the service's saturation
// throughput at that concurrency. Open loop: request k is due at
// start + k/rate regardless of completions; a client that falls behind
// sends the next request at once, and latency counts from the due
// time, so queueing delay shows up in the quantiles instead of hiding
// in a slowed-down generator (the coordinated-omission trap).
func runLoadHarness(opts options, lo loadOptions, w io.Writer) error {
	if lo.sessions <= 0 {
		lo.sessions = 1
	}
	scheduled := int64(math.Round(lo.rate * lo.duration.Seconds()))
	if lo.mode == "open" && (lo.rate <= 0 || scheduled == 0) {
		return fmt.Errorf("open loop needs -rate > 0 and at least one request in -duration, got %v/s for %v", lo.rate, lo.duration)
	}
	paths := make([]string, lo.sessions)
	for i := range paths {
		var info server.SessionInfo
		if err := postJSON(opts.addr+"/v1/sessions", opts.spec, &info); err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
		paths[i] = opts.addr + "/v1/sessions/" + info.ID + "/tasks"
	}

	reg := obs.NewRegistry()
	lat := reg.Histogram("load.latency_s", latencyBuckets)
	lag := reg.Histogram("load.lag_s", latencyBuckets)
	var requests, rejected, errs, sent atomic.Int64
	var seq atomic.Int64

	// submitOne posts a single clamped task and observes its latency
	// from t0 (the due time in open loop, not the send time) to reply.
	submitOne := func(buf []byte, target int, t0 time.Time) []byte {
		n := seq.Add(1)
		buf = append(buf[:0], `{"clamp":true,"tasks":[{"id":`...)
		buf = strconv.AppendInt(buf, n, 10)
		buf = append(buf, `,"cycles":2,"arrival":`...)
		buf = strconv.AppendInt(buf, n/int64(lo.sessions), 10)
		buf = append(buf, `}]}`...)
		resp, err := http.Post(paths[target], "application/json", bytes.NewReader(buf))
		if err != nil {
			errs.Add(1)
			return buf
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			requests.Add(1)
			lat.Observe(time.Since(t0).Seconds())
		case resp.StatusCode == http.StatusTooManyRequests:
			rejected.Add(1)
		default:
			errs.Add(1)
		}
		return buf
	}

	start := time.Now()
	deadline := start.Add(lo.duration)
	var wg sync.WaitGroup
	switch lo.mode {
	case "closed":
		for c := 0; c < opts.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := make([]byte, 0, 128)
				for time.Now().Before(deadline) {
					buf = submitOne(buf, c%lo.sessions, time.Now())
				}
			}(c)
		}
	case "open":
		cutoff := deadline.Add(openGrace)
		var next atomic.Int64
		for c := 0; c < opts.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				buf := make([]byte, 0, 128)
				for k := next.Add(1) - 1; k < scheduled; k = next.Add(1) - 1 {
					due := start.Add(time.Duration(float64(k) / lo.rate * float64(time.Second)))
					time.Sleep(time.Until(due))
					now := time.Now()
					if now.After(cutoff) {
						return
					}
					sent.Add(1)
					lag.Observe(now.Sub(due).Seconds())
					buf = submitOne(buf, c%lo.sessions, due)
				}
			}(c)
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// Drain the sessions so the server ends the run clean; drains are
	// bookkeeping, not measurement.
	for _, p := range paths {
		base := p[:len(p)-len("/tasks")]
		if err := doJSON("DELETE", base, nil, nil, http.StatusOK); err != nil {
			fmt.Fprintf(w, "drain: %v\n", err)
		}
	}

	snap := lat.Snapshot()
	rep := loadReport{
		Mode:       lo.mode,
		Clients:    opts.clients,
		Sessions:   lo.sessions,
		DurationS:  elapsed,
		Requests:   requests.Load(),
		Rejected:   rejected.Load(),
		Errors:     errs.Load(),
		Throughput: float64(requests.Load()) / elapsed,
		P50Ms:      snap.Quantile(0.50) * 1000,
		P95Ms:      snap.Quantile(0.95) * 1000,
		P99Ms:      snap.Quantile(0.99) * 1000,
	}
	if lo.mode == "open" {
		rep.OfferedRate = lo.rate
		rep.SentFrac = float64(sent.Load()) / float64(scheduled)
		rep.LagP99Ms = lag.Snapshot().Quantile(0.99) * 1000
	}

	fmt.Fprintf(w, "%s loop: %d clients over %d sessions for %.2fs\n", rep.Mode, rep.Clients, rep.Sessions, rep.DurationS)
	fmt.Fprintf(w, "throughput %.0f req/s (%d ok, %d rejected, %d errors)", rep.Throughput, rep.Requests, rep.Rejected, rep.Errors)
	if lo.mode == "open" {
		fmt.Fprintf(w, "  sent %d/%d (%.3f)  lag p99 %.3fms", sent.Load(), scheduled, rep.SentFrac, rep.LagP99Ms)
	}
	fmt.Fprintf(w, "\nlatency p50 %.3fms  p95 %.3fms  p99 %.3fms\n", rep.P50Ms, rep.P95Ms, rep.P99Ms)
	if lo.out != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(lo.out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", lo.out)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d requests failed", rep.Errors)
	}
	if n := sent.Load(); lo.mode == "open" && n < scheduled {
		return fmt.Errorf("open loop sent %d of %d scheduled requests", n, scheduled)
	}
	return nil
}
