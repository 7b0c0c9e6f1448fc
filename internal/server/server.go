// Package server turns the scheduler into a long-running service: a
// stdlib-only net/http JSON API with two planes. The stateless
// planning plane runs the Workload Based Greedy batch planner
// (Section III) behind an LRU result cache, on the request's own
// goroutine under one of GOMAXPROCS slots; the stateful session plane
// hosts online-mode shards (Section IV) — one Least Marginal Cost
// policy and virtual-time engine per session, behind one mutex — that
// accept task arrivals over HTTP and stream their observability trace
// back as JSON Lines. The package starts no goroutine of its own.
//
// Production plumbing is part of the contract: bounded waits for plan
// slots and session locks that shed load with 429s, per-request
// timeouts, panic-to-500 recovery, /healthz and /metrics (an
// obs.Registry snapshot), and graceful drain of every live session on
// shutdown.
package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"dvfsched/internal/obs"
)

// Config tunes the daemon. The zero value is production-safe.
type Config struct {
	// CacheSize bounds the plan LRU cache entries; 0 means 256,
	// negative disables caching.
	CacheSize int
	// MaxSessions bounds concurrently registered sessions (live plus
	// drained-but-not-purged); 0 means 1024.
	MaxSessions int
	// RequestTimeout bounds each request's handling time; 0 means 30s.
	RequestTimeout time.Duration
	// TraceFormat is the events endpoint's encoding when the request
	// has no ?format= query: "jsonl" (default) or "binary". A request's
	// explicit ?format= always wins.
	TraceFormat string
	// Registry receives the server's metrics; nil means a fresh one.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.TraceFormat == "" {
		c.TraceFormat = "jsonl"
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	return c
}

// Server is the scheduling service. It implements http.Handler; wire
// it into an http.Server (cmd/dvfschedd) or httptest (tests).
type Server struct {
	cfg      Config
	reg      *obs.Registry
	planner  *planner
	sessions *sessions
	handler  http.Handler
	started  time.Time

	draining atomic.Bool

	requests *obs.Counter
	failures *obs.Counter
	rejected *obs.Counter
	panics   *obs.Counter
	inflight *obs.Gauge
	latency  *obs.Histogram
}

// latencyBuckets spans sub-millisecond cache hits through multi-second
// planning runs, in seconds.
var latencyBuckets = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// New builds a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		planner:  newPlanner(cfg.CacheSize, reg),
		sessions: newSessions(cfg.MaxSessions, reg),
		started:  time.Now(),
		requests: reg.Counter(obs.ServerRequests),
		failures: reg.Counter(obs.ServerFailures),
		rejected: reg.Counter(obs.ServerRejected),
		panics:   reg.Counter(obs.ServerPanics),
		inflight: reg.Gauge(obs.ServerInFlight),
		latency:  reg.Histogram(obs.ServerLatency, latencyBuckets),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	mux.HandleFunc("POST /v1/sessions/{id}/tasks", s.handleSessionSubmit)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSessionSnapshot)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.handler = s.instrument(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Sessions returns the number of registered sessions (live plus
// tombstoned), for health reporting.
func (s *Server) Sessions() int { return s.sessions.count() }

// BeginDrain flips the server into drain mode: both planes refuse new
// work with 503 (ErrDraining) so load balancers fail over, while
// in-flight requests, plans waiting for a slot and DrainAll itself
// proceed. Idempotent. cmd/dvfschedd calls it on SIGTERM before
// shutting the listener down.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close is BeginDrain: the server runs no goroutine of its own, so
// refusing new work is all there is to stop.
func (s *Server) Close() { s.BeginDrain() }

// healthzResponse is the GET /healthz body.
type healthzResponse struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Sessions int     `json:"sessions"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   "ok",
		UptimeS:  time.Since(s.started).Seconds(),
		Sessions: s.sessions.count(),
	})
}

// handleMetrics serves the registry snapshot as indented JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	//dvfslint:allow errcheck-hot best-effort reply: the 200 header is already committed, only the client's read fails
	_ = s.reg.WriteJSON(w)
}
