package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/platform"
	"dvfsched/internal/sim"
	"dvfsched/internal/trace"
)

// PlatformSpec is the platform slice of a request: a named rate table
// replicated over identical cores. The zero value means "table2 on 4
// cores".
type PlatformSpec struct {
	// Cores is the core count (default 4).
	Cores int `json:"cores,omitempty"`
	// Platform names the rate table: table2, i7, or exynos (default
	// table2).
	Platform string `json:"platform,omitempty"`
	// Re and Rt are the cost constants (defaults 0.1 and 0.4, the
	// paper's batch setting).
	Re float64 `json:"re,omitempty"`
	Rt float64 `json:"rt,omitempty"`
}

// normalize fills defaults and resolves the named rate table.
func (p PlatformSpec) normalize() (PlatformSpec, model.CostParams, *platform.Platform, error) {
	if p.Cores == 0 {
		p.Cores = 4
	}
	if p.Platform == "" {
		p.Platform = "table2"
	}
	if p.Re == 0 {
		p.Re = 0.1
	}
	if p.Rt == 0 {
		p.Rt = 0.4
	}
	if p.Cores < 0 || p.Cores > 4096 {
		return p, model.CostParams{}, nil, fmt.Errorf("cores must be in 1..4096, got %d", p.Cores)
	}
	var rates *model.RateTable
	switch p.Platform {
	case "table2":
		rates = platform.TableII()
	case "i7":
		rates = platform.IntelI7950()
	case "exynos":
		rates = platform.ExynosT4412()
	default:
		return p, model.CostParams{}, nil, fmt.Errorf("unknown platform %q (want table2, i7, or exynos)", p.Platform)
	}
	params := model.CostParams{Re: p.Re, Rt: p.Rt}
	if err := params.Validate(); err != nil {
		return p, model.CostParams{}, nil, err
	}
	return p, params, platform.Homogeneous(p.Cores, rates, platform.Ideal{}), nil
}

// PlanRequest is the body of POST /v1/plan: a batch workload (all
// arrivals 0, no deadlines, non-interactive) to schedule with Workload
// Based Greedy.
type PlanRequest struct {
	PlatformSpec
	// Tasks is the workload in the trace wire format.
	Tasks []trace.Record `json:"tasks"`
}

// PlanResponse is the planning plane's reply.
type PlanResponse struct {
	// Plan is the self-contained plan document (batch.Plan JSON form).
	Plan json.RawMessage `json:"plan"`
	// EnergyCost, TimeCost and TotalCost are the analytic model's
	// predictions in cents (Eq. 8).
	EnergyCost float64 `json:"energy_cost"`
	TimeCost   float64 `json:"time_cost"`
	TotalCost  float64 `json:"total_cost"`
	// Joules, MakespanS and TurnaroundSumS are the physical totals.
	Joules         float64 `json:"joules"`
	MakespanS      float64 `json:"makespan_s"`
	TurnaroundSumS float64 `json:"turnaround_sum_s"`
	// Cached reports whether the result came from the LRU cache.
	Cached bool `json:"cached"`
}

// SessionInfo describes one online session shard.
type SessionInfo struct {
	ID string `json:"id"`
	PlatformSpec
	// Clock is the session's virtual time in seconds.
	Clock float64 `json:"clock"`
	// Pending counts submitted-but-uncompleted tasks.
	Pending int `json:"pending"`
	// Submitted counts tasks accepted so far.
	Submitted int `json:"submitted"`
	// Drained reports whether the session has been drained and only
	// its trace remains readable.
	Drained bool `json:"drained"`
}

// SubmitRequest is the body of POST /v1/sessions/{id}/tasks.
type SubmitRequest struct {
	Tasks []trace.Record `json:"tasks"`
	// Clamp admits arrivals stamped before the session clock by
	// clamping them up to it (core.OnlineSession.Admit) instead of
	// rejecting the batch with 400. Concurrent submitters to one
	// session need it: whichever request loses the race into the shard
	// sees virtual time already advanced past its timestamps.
	Clamp bool `json:"clamp,omitempty"`
}

// SubmitResponse acknowledges accepted arrivals.
type SubmitResponse struct {
	Accepted int     `json:"accepted"`
	Clock    float64 `json:"clock"`
	Pending  int     `json:"pending"`
}

// DrainResponse reports a drained session's final measurements.
type DrainResponse struct {
	ID     string `json:"id"`
	Policy string `json:"policy"`
	Tasks  int    `json:"tasks"`
	// Costs in cents, applied to the measured run.
	EnergyCost float64 `json:"energy_cost"`
	TimeCost   float64 `json:"time_cost"`
	TotalCost  float64 `json:"total_cost"`
	// Physical totals.
	TotalEnergyJ   float64 `json:"total_energy_j"`
	MakespanS      float64 `json:"makespan_s"`
	TurnaroundSumS float64 `json:"turnaround_sum_s"`
	Switches       int     `json:"switches"`
	Preemptions    int     `json:"preemptions"`
}

// drainResponse converts a sim result into the wire form.
func drainResponse(id string, res *sim.Result) DrainResponse {
	return DrainResponse{
		ID:             id,
		Policy:         res.Policy,
		Tasks:          len(res.Tasks),
		EnergyCost:     res.EnergyCost,
		TimeCost:       res.TimeCost,
		TotalCost:      res.TotalCost,
		TotalEnergyJ:   res.TotalEnergy,
		MakespanS:      res.Makespan,
		TurnaroundSumS: res.TurnaroundSum,
		Switches:       res.Switches,
		Preemptions:    res.Preemptions,
	}
}

// apiError is the machine-readable error payload carried by every
// non-2xx reply on every plane (plan, session, cluster replica, cluster
// admin). Code is a stable snake_case identifier clients can switch on;
// Message is human-readable detail. The code↔status table lives in
// DESIGN §13.4.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorResponse is the JSON body of every non-2xx reply: one envelope,
// `{"error":{"code":"...","message":"..."}}`, across all planes. The
// Router forwards these bodies verbatim, so a client sees the same
// shape whether the answering node owned the session or proxied it.
type errorResponse struct {
	Error apiError `json:"error"`
}

// writeJSON serializes v with the given status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	//dvfslint:allow errcheck-hot header already sent; nothing useful to do on error
	_ = enc.Encode(v)
}

// codeForStatus derives the envelope code for call sites that only
// know an HTTP status (parse errors, validation failures). Sentinel
// mappings in writeAPIError carry more specific codes.
func codeForStatus(status int) string {
	switch {
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case status == http.StatusConflict:
		return "conflict"
	case status == http.StatusTooManyRequests:
		return "busy"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	case status == http.StatusBadGateway:
		return "bad_gateway"
	case status >= 500:
		return "internal"
	default:
		return "bad_request"
	}
}

// writeError serializes the error envelope with a code derived from
// the status alone; use writeCodedError when a more specific code is
// known.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeCodedError(w, status, codeForStatus(status), format, args...)
}

// writeCodedError serializes the one error envelope every plane emits.
func writeCodedError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// WriteErrorEnvelope is the exported face of the unified error
// envelope, for the cluster planes (internal/cluster) — every non-2xx
// body in the system goes through this one shape. An empty code is
// derived from the status.
func WriteErrorEnvelope(w http.ResponseWriter, status int, code, format string, args ...any) {
	if code == "" {
		code = codeForStatus(status)
	}
	writeCodedError(w, status, code, format, args...)
}

// writeAPIError maps typed errors to HTTP statuses and envelope codes:
// this package's sentinels (errors.go) plus the core facade's.
// Backpressure (ErrBusy, ErrSessionTableFull) is 429 in steady state
// and 503 once a drain has begun, so load balancers stop retrying a
// terminating replica instead of backing off against it. Migration
// fencing (ErrSessionMigrating, ErrSessionMoved) is 503: the condition
// clears in milliseconds and a retry re-routes to the new owner.
// Errors matching none of the sentinels get the caller's fallback
// status.
func (s *Server) writeAPIError(w http.ResponseWriter, err error, fallback int) {
	switch {
	case errors.Is(err, ErrDraining):
		writeCodedError(w, http.StatusServiceUnavailable, "draining", "%v", err)
	case errors.Is(err, ErrBusy), errors.Is(err, ErrSessionTableFull):
		code := "busy"
		if errors.Is(err, ErrSessionTableFull) {
			code = "session_table_full"
		}
		if s.draining.Load() {
			writeCodedError(w, http.StatusServiceUnavailable, "draining", "%v (draining)", err)
			return
		}
		s.rejected.Inc()
		writeCodedError(w, http.StatusTooManyRequests, code, "%v", err)
	case errors.Is(err, ErrSessionGone):
		writeCodedError(w, http.StatusNotFound, "session_not_found", "%v", err)
	case errors.Is(err, ErrSessionDrained):
		writeCodedError(w, http.StatusConflict, "session_drained", "%v", err)
	case errors.Is(err, ErrSessionExists):
		writeCodedError(w, http.StatusConflict, "session_exists", "%v", err)
	case errors.Is(err, ErrSessionMigrating):
		writeCodedError(w, http.StatusServiceUnavailable, "session_migrating", "%v", err)
	case errors.Is(err, ErrSessionMoved):
		writeCodedError(w, http.StatusServiceUnavailable, "session_moved", "%v", err)
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		writeCodedError(w, http.StatusServiceUnavailable, "canceled", "request cancelled or timed out: %v", err)
	case errors.Is(err, core.ErrNotBatchable),
		errors.Is(err, core.ErrNoCores),
		errors.Is(err, core.ErrEmptySubmission):
		writeCodedError(w, http.StatusBadRequest, "invalid_workload", "%v", err)
	default:
		writeError(w, fallback, "%v", err)
	}
}
