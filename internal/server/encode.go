package server

import (
	"net/http"
	"strconv"
	"sync"

	"dvfsched/internal/obs"
)

// This file is the serving plane's zero-allocation encoding layer:
// append-style JSON framing through pooled byte buffers for the two
// hot responses (session submits and plan results) and the session
// event stream. The appenders produce the same bytes encoding/json
// does for the same structs (obs.AppendJSONFloat / AppendJSONString
// carry the format rules), so switching a path between the two is a
// pure performance change — the parity tests in encode_test.go hold
// them to that.
//
// Buffer ownership rule (mirrors DESIGN §9's scratch rules): a pooled
// buffer is held only between Get and Put inside one function; nothing
// retains it after Put, and anything that must outlive the call (a
// cache entry, a response copy) is copied out first.

// eventFlushBytes is the write granularity of the event stream: big
// enough to amortize the ResponseWriter's syscall per chunk, small
// enough that pooled buffers stay cache-friendly.
const eventFlushBytes = 32 << 10

// encBufPool recycles encoding buffers across requests. Entries are
// *[]byte so Put does not allocate a new header box per cycle.
var encBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// appendSubmitResponse frames r compactly, byte-identical to
// encoding/json.Marshal(r).
func appendSubmitResponse(b []byte, r SubmitResponse) []byte {
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(r.Accepted), 10)
	b = append(b, `,"clock":`...)
	b = obs.AppendJSONFloat(b, r.Clock)
	b = append(b, `,"pending":`...)
	b = strconv.AppendInt(b, int64(r.Pending), 10)
	return append(b, '}')
}

// appendPlanResponse frames r compactly. r.Plan is emitted verbatim —
// the planner stores it pre-compacted — which matches Marshal's bytes
// whenever the plan document contains no characters Marshal would
// HTML-escape (task names with <, > or & re-escape under Marshal but
// pass through here; both are valid JSON for the same value).
func appendPlanResponse(b []byte, r PlanResponse) []byte {
	b = append(b, planPrefix...)
	if len(r.Plan) == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, r.Plan...)
	}
	return appendPlanTotals(b, r)
}

// planPrefix opens a framed PlanResponse; the plan document follows.
const planPrefix = `{"plan":`

// planTotalsMax bounds appendPlanTotals' output plus a newline: six
// keys (86 bytes), six floats of at most 25 bytes, `,"cached":false}`.
const planTotalsMax = 256

// appendPlanTotals frames the rest of r after its plan document: the
// totals, the cached flag and the closing brace.
func appendPlanTotals(b []byte, r PlanResponse) []byte {
	b = append(b, `,"energy_cost":`...)
	b = obs.AppendJSONFloat(b, r.EnergyCost)
	b = append(b, `,"time_cost":`...)
	b = obs.AppendJSONFloat(b, r.TimeCost)
	b = append(b, `,"total_cost":`...)
	b = obs.AppendJSONFloat(b, r.TotalCost)
	b = append(b, `,"joules":`...)
	b = obs.AppendJSONFloat(b, r.Joules)
	b = append(b, `,"makespan_s":`...)
	b = obs.AppendJSONFloat(b, r.MakespanS)
	b = append(b, `,"turnaround_sum_s":`...)
	b = obs.AppendJSONFloat(b, r.TurnaroundSumS)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	return append(b, '}')
}

// writeAppended sends a 200 with body bytes produced by an appender
// through a pooled buffer. The trailing newline matches what the
// json.Encoder-based writeJSON emitted, so line-oriented consumers
// (curl | grep, the smoke script) keep working.
func writeAppended(w http.ResponseWriter, b []byte) {
	b = append(b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	//dvfslint:allow errcheck-hot header already sent; nothing useful to do on error
	_, _ = w.Write(b)
}

// writeSubmitResponse is the submit fast path: pooled buffer, append
// framing, no marshal.
func writeSubmitResponse(w http.ResponseWriter, r SubmitResponse) {
	bp := encBufPool.Get().(*[]byte)
	b := appendSubmitResponse((*bp)[:0], r)
	writeAppended(w, b)
	*bp = b[:0]
	encBufPool.Put(bp)
}

// writePlanResponse is the plan-miss fast path; cache hits skip even
// this and write the entry's pre-encoded bytes (handlePlan).
func writePlanResponse(w http.ResponseWriter, r PlanResponse) {
	bp := encBufPool.Get().(*[]byte)
	b := appendPlanResponse((*bp)[:0], r)
	writeAppended(w, b)
	*bp = b[:0]
	encBufPool.Put(bp)
}
