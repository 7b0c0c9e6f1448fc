package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// replica is the cold standby state of one session owned elsewhere:
// the platform spec and the shipped event log. LMC's schedule is a
// deterministic function of the arrivals, so the log is the whole
// state. Nothing here is a live scheduler — promotion
// (Node.EnsureLocal) replays the log into one only when the owner
// dies.
type replica struct {
	// from is the node whose frame last opened this replica: the only
	// sender whose drop may retire it. Guarded by replicaStore.mu, not
	// mu, so a drop never nests the two locks.
	from string

	mu   sync.Mutex
	spec server.PlatformSpec
	// log is the shipped event log, written and committed under mu.
	// Its last event's Seq is the log tail every append is checked
	// against.
	log obs.Recorder
}

// replicaStore holds the node's replicas, keyed by session ID.
type replicaStore struct {
	mu sync.Mutex
	m  map[string]*replica
}

func (rs *replicaStore) get(id string) (*replica, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rep, ok := rs.m[id]
	return rep, ok
}

// open returns the session's replica, creating it if absent, and
// records from as its sender. A re-open (owner reconnecting, a new
// owner after a migration, or re-shipping after a gap) keeps the
// existing log and refreshes the spec.
//
// The store lock is released before the replica lock is taken: holding
// both nests store->replica, the reverse of EnsureLocal's
// replica->store (it drops the entry while holding rep.mu), and a
// re-open racing a promotion of the same session would deadlock.
func (rs *replicaStore) open(id string, spec server.PlatformSpec, from string) *replica {
	rs.mu.Lock()
	rep, ok := rs.m[id]
	if !ok {
		rep = &replica{}
		rs.m[id] = rep
	}
	rep.from = from
	rs.mu.Unlock()
	rep.mu.Lock()
	rep.spec = spec
	rep.mu.Unlock()
	return rep
}

func (rs *replicaStore) drop(id string) {
	rs.mu.Lock()
	delete(rs.m, id)
	rs.mu.Unlock()
}

// dropFrom is a sender's drop: it retires the replica only if from
// opened it last. After a migration the old and new owner may both
// replicate to the same node, and the old owner's purge must not
// delete the replica the new owner just built there.
func (rs *replicaStore) dropFrom(id, from string) {
	rs.mu.Lock()
	if rep, ok := rs.m[id]; ok && rep.from == from {
		delete(rs.m, id)
	}
	rs.mu.Unlock()
}

func (rs *replicaStore) ids() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]string, 0, len(rs.m))
	for id := range rs.m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// appendLog applies a shipped event batch. Events at or below lastSeq
// are duplicates of state already held (a full re-ship after target
// reselection) and are skipped; past that, the batch must continue the
// log exactly — a gap means the owner and replica disagree about what
// was shipped, and accepting it would leave a hole the promotion
// replay cannot cross. The owner heals a reported gap by re-shipping
// from zero. What the batch appended is committed when it returns,
// gap or not.
func (rep *replica) appendLog(events []obs.Event) error {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	defer rep.log.Commit()
	lastSeq := rep.log.LastSeq()
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			continue
		}
		if lastSeq != 0 || rep.log.Len() > 0 {
			if ev.Seq != lastSeq+1 {
				return fmt.Errorf("log gap: have seq %d, got %d", lastSeq, ev.Seq)
			}
		}
		rep.log.Emit(ev)
		lastSeq = ev.Seq
	}
	return nil
}

// --- introspection endpoints ---

// RouteInfo is the reply of GET /v1/cluster/route?session=ID.
type RouteInfo struct {
	Session    string   `json:"session"`
	Owner      string   `json:"owner"`
	Candidates []string `json:"candidates"`
}

func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing session query parameter")
		return
	}
	cands := n.Route(id)
	info := RouteInfo{Session: id, Candidates: cands}
	if len(cands) > 0 {
		info.Owner = cands[0]
	}
	writeClusterJSON(w, info)
}

// NodeInfo is the reply of GET /v1/cluster/info.
type NodeInfo struct {
	ID    string `json:"id"`
	Epoch uint64 `json:"epoch"`
	// Member reports whether this node is part of its own view; a
	// drained-out node keeps serving as a forwarding front with
	// Member=false.
	Member     bool     `json:"member"`
	Peers      []string `json:"peers"`
	Down       []string `json:"down"`
	Replicas   []string `json:"replicas"`
	Placements []string `json:"placements,omitempty"`
}

func (n *Node) handleInfo(w http.ResponseWriter, r *http.Request) {
	v := n.view()
	_, member := v.peers[n.cfg.ID]
	info := NodeInfo{
		ID:         n.cfg.ID,
		Epoch:      v.epoch,
		Member:     member,
		Peers:      v.nodeIDs(),
		Replicas:   n.replicas.ids(),
		Placements: n.placementIDs(),
	}
	n.mu.Lock()
	for id := range n.down {
		info.Down = append(info.Down, id)
	}
	n.mu.Unlock()
	sort.Strings(info.Down)
	writeClusterJSON(w, info)
}

// httpError emits the unified error envelope on the cluster planes:
// the same `{"error":{"code":"...","message":"..."}}` shape the
// session and plan planes produce, so a client (or the router's
// verbatim forward) sees one error format everywhere.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	server.WriteErrorEnvelope(w, code, "", format, args...)
}

func writeClusterJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(v)
}
