package server

import "errors"

// Sentinel errors for the service planes, matchable via errors.Is.
// writeAPIError (wire.go) maps them — together with the core facade's
// sentinels — to HTTP statuses.
var (
	// ErrBusy reports a full plan queue, or too many callers waiting
	// for one session's lock: backpressure. 429 in steady state, 503
	// once a drain has begun.
	ErrBusy = errors.New("server: queue full; retry later")
	// ErrSessionGone reports a purged session: 404.
	ErrSessionGone = errors.New("server: session is gone")
	// ErrSessionDrained reports a submit against a session that has
	// already been drained to its final result: 409.
	ErrSessionDrained = errors.New("server: session already drained")
	// ErrSessionTableFull reports the registry at MaxSessions: 429 in
	// steady state, 503 once a drain has begun.
	ErrSessionTableFull = errors.New("server: session table full")
	// ErrDraining reports new work refused because graceful shutdown
	// has begun: 503, so load balancers fail over instead of retrying.
	ErrDraining = errors.New("server: draining; not accepting new work")
	// ErrSessionExists reports a create or adopt under an ID that is
	// already registered: 409. Only reachable with caller-chosen IDs
	// (the cluster router's placement header); generated IDs are fresh
	// by construction.
	ErrSessionExists = errors.New("server: session already exists")
	// ErrSessionMigrating reports a request fenced out while the
	// session is frozen for a planned migration: 503, retryable. The
	// freeze window covers ship + ownership flip, typically well under
	// a client retry backoff.
	ErrSessionMigrating = errors.New("server: session migrating; retry")
	// ErrSessionMoved reports a request that raced past an ownership
	// flip and landed on the old owner after handoff: 503, retryable.
	// The retry re-routes through the cluster placement table to the
	// new owner.
	ErrSessionMoved = errors.New("server: session moved to another node; retry")
)
