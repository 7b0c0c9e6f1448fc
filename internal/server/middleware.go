package server

import (
	"context"
	"net/http"
	"time"
)

// statusRecorder captures the response status for failure accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

// instrument wraps the mux with the serving plumbing, outermost first:
// request metrics, a per-request deadline, and panic-to-500 recovery.
// Handlers observe the deadline through the request context (the
// waits for a plan slot and for a session's lock end with it).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Inc()
		s.inflight.Add(1)
		defer s.inflight.Add(-1)

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				s.panics.Inc()
				s.failures.Inc()
				// Best effort: if the handler already wrote a header
				// this is a no-op and the client sees a broken body.
				writeError(rec, http.StatusInternalServerError, "internal error: %v", p)
			} else if rec.status >= 500 {
				s.failures.Inc()
			}
			s.latency.Observe(time.Since(start).Seconds())
		}()
		next.ServeHTTP(rec, r)
	})
}
