package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"dvfsched/internal/core"
	"dvfsched/internal/model"
	"dvfsched/internal/obs"
	"dvfsched/internal/platform"
)

// maxMovedMarkers caps the moved-marker map; past it the markers reset
// wholesale. A marker upgrades a 404 into a retryable 503 for requests
// racing a migration flip, and it is also the cluster's promotion
// fence during a join window (cluster.Node.EnsureLocal): while it
// stands, a replica the new owner shipped back here is not promoted.
// A reset can drop a marker that still fences a live session.
const maxMovedMarkers = 65536

// sessions is the registry of live and drained (tombstoned) shards.
type sessions struct {
	mu      sync.Mutex
	m       map[string]*shard
	moved   map[string]string // migrated-away session -> target node
	seq     int
	maxOpen int

	open    *obs.Gauge
	opened  *obs.Counter
	drained *obs.Counter
	tasks   *obs.Counter
}

func newSessions(maxOpen int, reg *obs.Registry) *sessions {
	return &sessions{
		m:       map[string]*shard{},
		moved:   map[string]string{},
		maxOpen: maxOpen,
		open:    reg.Gauge(obs.ServerSessionsOpen),
		opened:  reg.Counter(obs.ServerSessionsOpened),
		drained: reg.Counter(obs.ServerSessionsDrained),
		tasks:   reg.Counter(obs.ServerSessionTasks),
	}
}

// create opens a new shard. An empty id generates a fresh sequential
// one; a non-empty id (the cluster router's placement header) is used
// verbatim and must not collide with a registered session.
func (ss *sessions) create(id string, spec PlatformSpec, params model.CostParams, plat *platform.Platform) (*shard, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if len(ss.m) >= ss.maxOpen {
		return nil, fmt.Errorf("%w (%d); drain and delete old sessions", ErrSessionTableFull, ss.maxOpen)
	}
	if id == "" {
		ss.seq++
		id = fmt.Sprintf("s-%06d", ss.seq)
	} else if _, ok := ss.m[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	sh, err := newShard(id, spec, params, plat)
	if err != nil {
		return nil, err
	}
	ss.m[id] = sh
	delete(ss.moved, id) // the session lives here again
	ss.opened.Inc()
	ss.open.Add(1)
	return sh, nil
}

// adopt registers a shard around a session rebuilt from replicated
// state (Server.AdoptSession). The ID is the dead owner's, so clients
// keep addressing the session they created.
func (ss *sessions) adopt(id string, rb *RebuiltSession) (*shard, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.m[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrSessionExists, id)
	}
	if len(ss.m) >= ss.maxOpen {
		return nil, fmt.Errorf("%w (%d); drain and delete old sessions", ErrSessionTableFull, ss.maxOpen)
	}
	sh := &shard{id: id, spec: rb.Spec, rec: rb.Rec, sess: rb.Sess, submitted: rb.Submitted}
	ss.m[id] = sh
	delete(ss.moved, id) // adopted back: the marker no longer applies
	ss.opened.Inc()
	ss.open.Add(1)
	return sh, nil
}

// get looks a shard up by ID.
func (ss *sessions) get(id string) (*shard, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	sh, ok := ss.m[id]
	return sh, ok
}

// remove forgets a shard and purges it.
func (ss *sessions) remove(id string) {
	ss.mu.Lock()
	sh, ok := ss.m[id]
	delete(ss.m, id)
	ss.mu.Unlock()
	if ok {
		sh.purge()
	}
}

// markMoved retires a shard after a migration flip, leaving a marker
// naming the new owner. The marker turns what would be a 404 (session
// unknown here) into a retryable ErrSessionMoved 503 for any request
// that raced past routing before the flip. The live-session gauge
// drops — the session still exists, just not here.
func (ss *sessions) markMoved(id, target string) {
	ss.mu.Lock()
	sh, ok := ss.m[id]
	delete(ss.m, id)
	if len(ss.moved) >= maxMovedMarkers {
		ss.moved = map[string]string{}
	}
	ss.moved[id] = target
	ss.mu.Unlock()
	if ok {
		ss.open.Add(-1)
		sh.purge()
	}
}

// movedTo reports a moved marker's target, if one exists.
func (ss *sessions) movedTo(id string) (string, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	target, ok := ss.moved[id]
	return target, ok
}

// all snapshots the registry in ID order.
func (ss *sessions) all() []*shard {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]*shard, 0, len(ss.m))
	for _, sh := range ss.m {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// count returns the number of registered shards (live + tombstoned).
func (ss *sessions) count() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.m)
}

// handleSessionCreate is POST /v1/sessions.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAPIError(w, ErrDraining, http.StatusServiceUnavailable)
		return
	}
	var spec PlatformSpec
	if err := decodeJSON(r.Body, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, params, plat, err := spec.normalize()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The cluster router pre-places sessions on the hash ring by
	// minting the ID before the create reaches the owning node; honor
	// its choice when the header is present.
	id := r.Header.Get(SessionIDHeader)
	if id != "" && !ValidID(id) {
		writeError(w, http.StatusBadRequest, "invalid %s %q: want 1-64 chars of [A-Za-z0-9._-]", SessionIDHeader, id)
		return
	}
	sh, err := s.sessions.create(id, spec, params, plat)
	if err != nil {
		s.writeAPIError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, SessionInfo{ID: sh.id, PlatformSpec: sh.spec})
}

// lookupShard resolves {id} or writes a 404 — unless the session was
// migrated away, in which case the reply is the retryable moved 503.
func (s *Server) lookupShard(w http.ResponseWriter, r *http.Request) (*shard, bool) {
	id := r.PathValue("id")
	sh, ok := s.sessions.get(id)
	if !ok {
		if target, moved := s.sessions.movedTo(id); moved {
			s.writeAPIError(w, fmt.Errorf("%w: %s (now on %s)", ErrSessionMoved, id, target), http.StatusServiceUnavailable)
			return nil, false
		}
		writeError(w, http.StatusNotFound, "no session %q", id)
		return nil, false
	}
	return sh, true
}

// sessionErr upgrades a raced purge: if the shard vanished because the
// session migrated away mid-request, the caller should see the
// retryable moved sentinel, not a terminal "gone".
func (s *Server) sessionErr(id string, err error) error {
	if err != nil && errors.Is(err, ErrSessionGone) {
		if target, ok := s.sessions.movedTo(id); ok {
			return fmt.Errorf("%w: %s (now on %s)", ErrSessionMoved, id, target)
		}
	}
	return err
}

// handleSessionStatus is GET /v1/sessions/{id}.
func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	resp, err := sh.do(r.Context(), opStatus)
	if err != nil {
		s.writeAPIError(w, s.sessionErr(sh.id, err), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, SessionInfo{
		ID:           sh.id,
		PlatformSpec: sh.spec,
		Clock:        resp.clock,
		Pending:      resp.pending,
		Submitted:    resp.submitted,
		Drained:      resp.drained,
	})
}

// handleSessionSubmit is POST /v1/sessions/{id}/tasks.
func (s *Server) handleSessionSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeAPIError(w, ErrDraining, http.StatusServiceUnavailable)
		return
	}
	sh, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	tasks, clamp, err := decodeSubmit(r)
	if err == nil {
		err = checkTasks(tasks)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resp, err := sh.submit(r.Context(), tasks, clamp)
	if err != nil {
		s.writeAPIError(w, s.sessionErr(sh.id, err), http.StatusInternalServerError)
		return
	}
	if resp.err != nil {
		// Session-level failures (duplicate IDs, stale arrivals) are the
		// client's fault; sentinels (drained, canceled) map themselves.
		s.writeAPIError(w, resp.err, http.StatusBadRequest)
		return
	}
	s.sessions.tasks.Add(float64(len(tasks)))
	writeSubmitResponse(w, SubmitResponse{
		Accepted: len(tasks),
		Clock:    resp.clock,
		Pending:  resp.pending,
	})
}

// handleSessionEvents is GET /v1/sessions/{id}/events: the shard's obs
// event trace up to its last finished operation, so a read never ends
// inside a submit. The default is JSON Lines; with ?format=binary the
// same events stream in the compact framed binary trace encoding
// (decode with obs.BinaryReader or cmd/traceinfo, which auto-detects
// the magic), copied from the recorder's stored frames. The binary
// trace is the session's export: core.OnlineSession.ReplayTrace
// rebuilds the session from it, on a scheduler configured with the
// same platform and cost constants. After a drain it is the complete
// trace of the session and replays through report.TimelineFromEvents.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "":
		format = "jsonl"
	case "jsonl", "binary":
	default:
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want jsonl or binary)", format)
		return
	}
	writeEvents(w, sh.rec, -1, format)
}

// writeEvents streams the first n events of rec's committed log, or
// all of them when n is negative, in format ("jsonl" or "binary").
// X-Event-Count and the body come from one view of the log, which
// later commits leave unchanged, so they agree while the session keeps
// running. The binary body is written straight from the recorder's
// frames, byte for byte obs.AppendBinary of those events. JSON Lines
// are decoded one event at a time and go out through one pooled
// buffer, append-framed, without a marshal allocation per event.
func writeEvents(w http.ResponseWriter, rec *obs.Recorder, n int, format string) {
	log := rec.Log().Prefix(n)
	w.Header().Set("X-Event-Count", strconv.Itoa(log.Len()))
	if format == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
		_ = log.WriteBinary(w) // header already sent; a client that went away ends the stream
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	bp := encBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for r := log.Reader(); ; {
		ev, ok := r.Next()
		if !ok {
			break
		}
		buf = append(ev.AppendJSON(buf), '\n')
		if len(buf) >= eventFlushBytes {
			if _, err := w.Write(buf); err != nil {
				*bp = buf[:0]
				encBufPool.Put(bp)
				return // client went away mid-stream
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		//dvfslint:allow errcheck-hot header already sent; nothing useful to do on error
		_, _ = w.Write(buf)
	}
	*bp = buf[:0]
	encBufPool.Put(bp)
}

// handleSessionDelete is DELETE /v1/sessions/{id}: the first call
// drains the session (completing all pending work in virtual time) and
// reports the final measurements, keeping the trace readable; the
// second call purges the tombstone. A drain that fails (a task that
// cannot finish before the engine's time guard) answers 409 and also
// leaves a tombstone, unless the session never accepted a task.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.lookupShard(w, r)
	if !ok {
		return
	}
	resp, err := sh.do(r.Context(), opStatus)
	if err != nil {
		s.writeAPIError(w, s.sessionErr(sh.id, err), http.StatusInternalServerError)
		return
	}
	if resp.drained {
		s.sessions.remove(sh.id)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	resp, err = sh.do(r.Context(), opDrain)
	if err != nil {
		s.writeAPIError(w, s.sessionErr(sh.id, err), http.StatusInternalServerError)
		return
	}
	if resp.first {
		s.sessions.drained.Inc()
		s.sessions.open.Add(-1)
	}
	if resp.err != nil {
		if errors.Is(resp.err, core.ErrCanceled) || errors.Is(resp.err, ErrSessionMigrating) {
			// The request deadline aborted the drain mid-flight, or the
			// drain raced a migration freeze. Either way the session is
			// still live (here or, after the flip, on the new owner) and
			// the drain can be retried — purging it would drop a shard a
			// migration still references.
			s.writeAPIError(w, resp.err, http.StatusInternalServerError)
			return
		}
		// The drain failed. A session that accepted nothing has nothing
		// to keep and is purged at once; otherwise the tombstone keeps
		// the trace of the accepted tasks readable until the next
		// DELETE purges it.
		if resp.submitted == 0 {
			s.sessions.remove(sh.id)
		}
		writeError(w, http.StatusConflict, "drain %s: %v", sh.id, resp.err)
		return
	}
	writeJSON(w, http.StatusOK, drainResponse(sh.id, resp.result))
}

// DrainSummary describes one session drained during shutdown.
type DrainSummary struct {
	ID    string
	Tasks int
	Cost  float64
	Err   error
}

// DrainAll drains every live session, in ID order, and returns one
// summary per session that had work. It is the graceful-shutdown path:
// pending virtual-time work is completed (tasks are never dropped),
// tombstones stay readable until the process exits. It implies
// BeginDrain, so the planes refuse new work with 503 while it runs.
func (s *Server) DrainAll(ctx context.Context) []DrainSummary {
	s.BeginDrain()
	var out []DrainSummary
	for _, sh := range s.sessions.all() {
		st, err := sh.do(ctx, opStatus)
		if err == nil && st.drained {
			continue
		}
		resp, err := sh.do(ctx, opDrain)
		if err != nil {
			out = append(out, DrainSummary{ID: sh.id, Err: err})
			continue
		}
		if resp.first {
			s.sessions.drained.Inc()
			s.sessions.open.Add(-1)
		}
		if resp.err != nil {
			// An empty session has nothing to report.
			if resp.submitted > 0 {
				out = append(out, DrainSummary{ID: sh.id, Err: resp.err})
			}
			continue
		}
		out = append(out, DrainSummary{ID: sh.id, Tasks: len(resp.result.Tasks), Cost: resp.result.TotalCost})
	}
	return out
}
