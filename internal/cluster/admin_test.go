package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dvfsched/internal/audit"
	"dvfsched/internal/obs"
	"dvfsched/internal/server"
)

// Dynamic-membership and migration tests. All of them interleave
// cluster admin operations with live client traffic and are meaningful
// under -race (the checker runs them so): the properties pinned down —
// exactly-once admission across an ownership flip, byte-identical
// post-migration traces, bounded movement on join — are exactly the
// ones data races would silently break.

// addNode boots one extra node as a solo cluster (its seed view
// contains only itself), ready to be admitted via the join API. The
// startCluster cleanup shuts it down with the rest.
func (tc *testCluster) addNode(id string, tweak func(*Config)) *testNode {
	tc.t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tc.t.Fatal(err)
	}
	addr := "http://" + ln.Addr().String()
	srv := server.New(server.Config{})
	cfg := Config{ID: id, Peers: map[string]string{id: addr}}
	if tweak != nil {
		tweak(&cfg)
	}
	node, err := NewNode(cfg, srv)
	if err != nil {
		tc.t.Fatal(err)
	}
	hs := &http.Server{Handler: node.Handler()}
	tn := &testNode{id: id, srv: srv, node: node, http: hs, addr: addr}
	tc.byID[id] = tn
	go func() { _ = hs.Serve(ln) }()
	return tn
}

// join admits node id (already listening at its advertised address)
// through the given front and returns the membership change.
func (tc *testCluster) join(front, id string) MembershipChange {
	tc.t.Helper()
	body := []byte(fmt.Sprintf(`{"addr":%q}`, tc.byID[id].addr))
	code, b := tc.do(front, http.MethodPost, "/v1/cluster/nodes/"+id, body)
	if code != http.StatusOK {
		tc.t.Fatalf("join %s: %d %s", id, code, b)
	}
	var change MembershipChange
	if err := json.Unmarshal(b, &change); err != nil {
		tc.t.Fatal(err)
	}
	return change
}

// leave drains node id out of the ring through the given front.
func (tc *testCluster) leave(front, id string) MembershipChange {
	tc.t.Helper()
	code, b := tc.do(front, http.MethodDelete, "/v1/cluster/nodes/"+id, nil)
	if code != http.StatusOK {
		tc.t.Fatalf("leave %s: %d %s", id, code, b)
	}
	var change MembershipChange
	if err := json.Unmarshal(b, &change); err != nil {
		tc.t.Fatal(err)
	}
	return change
}

// holdsReplica reports whether node lists a replica of session id in
// its /v1/cluster/info.
func (tc *testCluster) holdsReplica(node, id string) bool {
	tc.t.Helper()
	for _, rid := range tc.nodeInfo(node).Replicas {
		if rid == id {
			return true
		}
	}
	return false
}

// nodeInfo fetches /v1/cluster/info from one node directly.
func (tc *testCluster) nodeInfo(id string) NodeInfo {
	tc.t.Helper()
	code, b := tc.do(id, http.MethodGet, "/v1/cluster/info", nil)
	if code != http.StatusOK {
		tc.t.Fatalf("info %s: %d %s", id, code, b)
	}
	var info NodeInfo
	if err := json.Unmarshal(b, &info); err != nil {
		tc.t.Fatal(err)
	}
	return info
}

// drainRetry drains a session through rotating fronts, riding out the
// transient 503s of migration fences, moved markers and converging
// views, and returns the drain result.
func (tc *testCluster) drainRetry(fronts []string, path string) *server.DrainResponse {
	tc.t.Helper()
	for attempt := 0; attempt < 80; attempt++ {
		code, b, err := tc.try(fronts[attempt%len(fronts)], http.MethodDelete, path, nil)
		switch {
		case err != nil, code >= 500, code == http.StatusTooManyRequests:
			time.Sleep(25 * time.Millisecond)
		case code == http.StatusOK:
			var dr server.DrainResponse
			if jerr := json.Unmarshal(b, &dr); jerr != nil {
				tc.t.Fatal(jerr)
			}
			return &dr
		default:
			tc.t.Fatalf("drain %s: %d %s", path, code, b)
		}
	}
	tc.t.Fatalf("drain %s: retries exhausted", path)
	return nil
}

// fetchEvents reads a session's full trace through rotating fronts.
func (tc *testCluster) fetchEvents(fronts []string, path string) []obs.Event {
	tc.t.Helper()
	for attempt := 0; attempt < 80; attempt++ {
		code, b, err := tc.try(fronts[attempt%len(fronts)], http.MethodGet, path+"/events", nil)
		switch {
		case err != nil, code >= 500:
			time.Sleep(25 * time.Millisecond)
		case code == http.StatusOK:
			events, err := obs.ReadJSONL(bytes.NewReader(b))
			if err != nil {
				tc.t.Fatal(err)
			}
			return events
		default:
			tc.t.Fatalf("events %s: %d %s", path, code, b)
		}
	}
	tc.t.Fatalf("events %s: retries exhausted", path)
	return nil
}

// auditTrace fails the test unless the trace meets the durability
// contract audit.CheckTrace states, against the drain response when the
// caller holds one.
func auditTrace(t *testing.T, spec server.PlatformSpec, events []obs.Event, acked map[int]bool, drain *server.DrainResponse) {
	t.Helper()
	if err := audit.CheckTrace(spec, events, acked, drain); err != nil {
		t.Fatal(err)
	}
}

// TestClusterJoinDuringTraffic grows a 3-node ring to 4 while clients
// submit: the join must move exactly the sessions whose ring owner
// changes (bounded movement, computed here from the rings themselves),
// land those sessions live on their new owner, converge every node on
// the epoch-2 view, and lose nothing — each session drains to a
// gapless exactly-once trace that rebuilds byte-identically.
func TestClusterJoinDuringTraffic(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const nSessions = 12

	type sess struct {
		info server.SessionInfo
		path string
	}
	sessions := make([]sess, nSessions)
	ids := make([]string, nSessions)
	for i := range sessions {
		info := tc.createSession("n1", `{"cores":2}`)
		sessions[i] = sess{info: info, path: "/v1/sessions/" + info.ID}
		ids[i] = info.ID
	}

	// Session IDs are deterministic (s-<node>-<seq>), so the bounded
	// movement expectation is computable up front: only the sessions
	// whose owner differs between the 3- and 4-node rings may migrate.
	oldRing, err := NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRing([]string{"n1", "n2", "n3", "n4"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMoved := 0
	for _, id := range ids {
		if oldRing.Owner(id) != newRing.Owner(id) {
			wantMoved++
		}
	}
	if wantMoved == 0 || wantMoved == nSessions {
		t.Fatalf("degenerate ring diff: %d of %d sessions move", wantMoved, nSessions)
	}

	fronts := []string{"n1", "n2", "n3"}
	var mu sync.Mutex
	acked := make([]map[int]bool, nSessions)
	for i := range acked {
		acked[i] = map[int]bool{}
	}
	// Boot the joiner before traffic starts (concurrent goroutines read
	// tc.byID, so the map must not grow mid-test); the join itself —
	// the interesting part — happens mid-traffic below.
	tc.addNode("n4", nil)

	const batches, perBatch = 6, 2
	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	for si := range sessions {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			myFronts := append([]string{fronts[si%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				base := perBatch * b
				batch := make([]int, perBatch)
				for i := range batch {
					batch[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, sessions[si].path, taskBatch(batch, true)) {
					mu.Lock()
					for _, id := range batch {
						acked[si][id] = true
					}
					mu.Unlock()
				}
				time.Sleep(3 * time.Millisecond)
			}
		}(si)
	}

	// Let traffic start, then grow the ring mid-flight.
	time.Sleep(10 * time.Millisecond)
	change := tc.join("n1", "n4")
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if change.Epoch != 2 || len(change.Nodes) != 4 {
		t.Fatalf("join change: %+v", change)
	}
	if change.Failed != 0 {
		t.Fatalf("join rebalance failed %d migrations: %+v", change.Failed, change)
	}
	if change.Moved != wantMoved {
		t.Errorf("join moved %d sessions, ring diff says %d", change.Moved, wantMoved)
	}
	// Every node, including the joiner, holds the epoch-2 view.
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		info := tc.nodeInfo(id)
		if info.Epoch != 2 || len(info.Peers) != 4 || !info.Member {
			t.Errorf("node %s view after join: %+v", id, info)
		}
	}
	// Moved sessions live on their new ring owner.
	for _, id := range ids {
		if !tc.byID[newRing.Owner(id)].srv.HasSession(id) {
			t.Errorf("session %s: new owner %s has no shard", id, newRing.Owner(id))
		}
	}

	allFronts := []string{"n1", "n2", "n3", "n4"}
	for si, s := range sessions {
		mu.Lock()
		want := len(acked[si])
		mu.Unlock()
		dr := tc.drainRetry(allFronts, s.path)
		if dr.Tasks != want {
			t.Errorf("session %s drained %d tasks, acked %d", s.info.ID, dr.Tasks, want)
		}
		events := tc.fetchEvents(allFronts, s.path)
		auditTrace(t, s.info.PlatformSpec, events, acked[si], dr)
	}
}

// TestClusterMigrateVsSubmit races a planned migration against live
// submitters: the operator moves the session to an explicit (pinned)
// off-ring target via a non-owner front mid-traffic. The freeze fence
// must keep every admission exactly-once — a submit either lands before
// the freeze and rides the shipped checkpoint, or retries onto the new
// owner — and the post-migration trace must rebuild byte-identically.
func TestClusterMigrateVsSubmit(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	fronts := []string{"n1", "n2", "n3"}

	owner := tc.byID["n1"].node.Route(info.ID)[0]
	target := ""
	for _, id := range tc.ids {
		if id != owner {
			target = id // explicitly not the ring owner: a pinned migration
			break
		}
	}

	var mu sync.Mutex
	acked := map[int]bool{}
	const clients, batches, perBatch = 3, 8, 2
	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	migrated := make(chan MigrateInfo, 1)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			myFronts := append([]string{fronts[c%len(fronts)]}, fronts...)
			for b := 0; b < batches; b++ {
				base := 1000*(c+1) + perBatch*b
				batch := make([]int, perBatch)
				for i := range batch {
					batch[i] = base + i + 1
				}
				if tc.submitRetry(myFronts, path, taskBatch(batch, true)) {
					mu.Lock()
					for _, id := range batch {
						acked[id] = true
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(15 * time.Millisecond) // let submits overlap the freeze
		body := []byte(fmt.Sprintf(`{"target":%q}`, target))
		// Call through the target front, which is not the session's home:
		// this exercises the proxy-to-home path of the migrate API too.
		code, b, err := tc.try(target, http.MethodPost, "/v1/cluster/sessions/"+info.ID+"/migrate", body)
		if err != nil {
			t.Errorf("migrate transport: %v", err)
			return
		}
		if code != http.StatusOK {
			t.Errorf("migrate: %d %s", code, b)
			return
		}
		var mi MigrateInfo
		if jerr := json.Unmarshal(b, &mi); jerr != nil {
			t.Error(jerr)
			return
		}
		migrated <- mi
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	mi := <-migrated
	if mi.To != target || !mi.Pinned {
		t.Fatalf("migrate info: %+v (want pinned move to %s)", mi, target)
	}
	if !tc.byID[target].srv.HasSession(info.ID) {
		t.Fatalf("target %s has no live shard for %s after migration", target, info.ID)
	}
	if tc.byID[owner].srv.HasSession(info.ID) {
		t.Fatalf("old owner %s still has a live shard for %s", owner, info.ID)
	}
	if to, ok := tc.byID[owner].srv.SessionMovedTo(info.ID); !ok || to != target {
		t.Errorf("old owner's moved marker: %q, %v (want %s)", to, ok, target)
	}
	if v := tc.byID[owner].srv.Registry().Counter(obs.ClusterMigrations).Value(); v < 1 {
		t.Errorf("owner migrations counter %v, want >= 1", v)
	}

	dr := tc.drainRetry(fronts, path)
	mu.Lock()
	wantTasks := len(acked)
	mu.Unlock()
	if dr.Tasks != wantTasks {
		t.Errorf("drained %d tasks, acked %d", dr.Tasks, wantTasks)
	}
	events := tc.fetchEvents(fronts, path)
	auditTrace(t, info.PlatformSpec, events, acked, dr)
}

// TestClusterMigrateVsDelete races a migration against the session's
// drain: whichever wins, the drain must report every accepted task
// exactly once and the surviving trace must audit clean. The loser
// fails cleanly — a drain hitting the freeze window retries through
// the moved marker; a migrate hitting a drained session is refused.
func TestClusterMigrateVsDelete(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	fronts := []string{"n1", "n2", "n3"}

	owner := tc.byID["n1"].node.Route(info.ID)[0]
	target := ""
	for _, id := range tc.ids {
		if id != owner {
			target = id
			break
		}
	}
	if code, b := tc.do(fronts[0], http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3, 4, 5, 6}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	acked := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}

	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	wg.Add(1)
	go func() {
		defer wg.Done()
		body := []byte(fmt.Sprintf(`{"target":%q}`, target))
		code, b, err := tc.try(owner, http.MethodPost, "/v1/cluster/sessions/"+info.ID+"/migrate", body)
		if err != nil {
			t.Errorf("migrate transport: %v", err)
			return
		}
		// 200: the migrate won. 409: the drain won (drained sessions do
		// not migrate) or the shard was mid-drain. 404: the drain finished
		// and the tombstone was already purged. All are clean outcomes;
		// what is never acceptable is a dropped or doubled task, which the
		// audit below would catch.
		if code != http.StatusOK && code != http.StatusConflict && code != http.StatusNotFound {
			t.Errorf("migrate: unexpected status %d %s", code, b)
		}
	}()
	dr := tc.drainRetry(fronts, path)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	if dr.Tasks != len(acked) {
		t.Errorf("drained %d tasks, want %d", dr.Tasks, len(acked))
	}
	events := tc.fetchEvents(fronts, path)
	auditTrace(t, info.PlatformSpec, events, acked, dr)
}

// TestClusterLeaveWhileOwner drains a node that owns sessions out of
// the ring: the leave must evacuate every live session it owns to that
// session's post-leave ring owner, flip the survivors to the epoch-2
// view, and keep the departed node usable as a forwarding front. All
// sessions then drain losslessly through the survivors.
func TestClusterLeaveWhileOwner(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const nSessions = 9

	type sess struct {
		info server.SessionInfo
		path string
	}
	sessions := make([]sess, nSessions)
	for i := range sessions {
		info := tc.createSession("n1", `{"cores":2}`)
		sessions[i] = sess{info: info, path: "/v1/sessions/" + info.ID}
		if code, b := tc.do(tc.ids[i%3], http.MethodPost, sessions[i].path+"/tasks", taskBatch([]int{1, 2, 3}, true)); code != http.StatusOK {
			t.Fatalf("seed submit: %d %s", code, b)
		}
	}
	acked := map[int]bool{1: true, 2: true, 3: true}

	// Pick the member owning the most sessions as the victim, so the
	// evacuation genuinely moves state.
	ownedBy := map[string][]string{}
	for _, s := range sessions {
		owner := tc.byID["n1"].node.Route(s.info.ID)[0]
		ownedBy[owner] = append(ownedBy[owner], s.info.ID)
	}
	victim := tc.ids[0]
	for _, id := range tc.ids {
		if len(ownedBy[id]) > len(ownedBy[victim]) {
			victim = id
		}
	}
	if len(ownedBy[victim]) == 0 {
		t.Fatalf("degenerate placement: no owned sessions (%v)", ownedBy)
	}
	coordinator := ""
	for _, id := range tc.ids {
		if id != victim {
			coordinator = id
			break
		}
	}

	change := tc.leave(coordinator, victim)
	if change.Epoch != 2 || len(change.Nodes) != 2 || change.Failed != 0 {
		t.Fatalf("leave change: %+v", change)
	}
	if change.Moved != len(ownedBy[victim]) {
		t.Errorf("leave moved %d sessions, victim owned %d", change.Moved, len(ownedBy[victim]))
	}

	survivors := make([]string, 0, 2)
	for _, id := range tc.ids {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	newRing, err := NewRing(survivors, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ownedBy[victim] {
		if tc.byID[victim].srv.HasSession(id) {
			t.Errorf("victim %s still has a live shard for %s after leaving", victim, id)
		}
		if !tc.byID[newRing.Owner(id)].srv.HasSession(id) {
			t.Errorf("session %s: post-leave owner %s has no shard", id, newRing.Owner(id))
		}
	}
	// The survivors hold the epoch-2 view; the departed node is no
	// longer a member of its own view but still fronts the cluster.
	for _, id := range survivors {
		info := tc.nodeInfo(id)
		if info.Epoch != 2 || len(info.Peers) != 2 || !info.Member {
			t.Errorf("survivor %s view: %+v", id, info)
		}
	}
	if info := tc.nodeInfo(victim); info.Member {
		t.Errorf("departed node %s still lists itself as a member: %+v", victim, info)
	}
	victimSession := ownedBy[victim][0]
	if code, b := tc.do(victim, http.MethodGet, "/v1/sessions/"+victimSession, nil); code != http.StatusOK {
		t.Errorf("departed node no longer forwards: %d %s", code, b)
	}

	// Everything drains losslessly through the survivors.
	for _, s := range sessions {
		dr := tc.drainRetry(survivors, s.path)
		if dr.Tasks != len(acked) {
			t.Errorf("session %s drained %d tasks, want %d", s.info.ID, dr.Tasks, len(acked))
		}
		events := tc.fetchEvents(survivors, s.path)
		auditTrace(t, s.info.PlatformSpec, events, acked, dr)
	}
}

// TestClusterShipHealsDroppedReplica pins the replication cursor's
// self-healing: if a session's replica vanishes from under an open
// ship cursor — as when the replica node restarted empty — the next
// submit must re-open the replica and re-ship the full log within the
// same request. Without the heal, every subsequent submit 502s forever
// and the session quietly runs unreplicated.
func TestClusterShipHealsDroppedReplica(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID

	if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}

	// Find the replica holder and drop the replica behind the owner's
	// cursor with a drop frame in the owner's name, through the replica
	// plane itself.
	holder := ""
	for _, id := range tc.ids {
		if tc.holdsReplica(id, info.ID) {
			holder = id
		}
	}
	if holder == "" {
		t.Fatalf("no node holds a replica of %s after an acked submit", info.ID)
	}
	owner := tc.byID["n1"].node.Route(info.ID)[0]
	drop, err := appendFrame(nil, frameHeader{From: owner, ID: info.ID, Drop: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, b := tc.do(holder, http.MethodPost, "/v1/cluster/replica/frame", drop); code != http.StatusOK {
		t.Fatalf("drop replica on %s: %d %s", holder, code, b)
	}
	if tc.holdsReplica(holder, info.ID) {
		t.Fatalf("drop frame from owner %s left the replica of %s on %s", owner, info.ID, holder)
	}

	// The very next submit must ack — healed in-request, no retry.
	if code, b := tc.do("n2", http.MethodPost, path+"/tasks", taskBatch([]int{4, 5}, true)); code != http.StatusOK {
		t.Fatalf("submit after replica drop: %d %s", code, b)
	}
	if !tc.holdsReplica(holder, info.ID) {
		t.Fatalf("replica of %s on %s was not rebuilt by the healing ship", info.ID, holder)
	}

	dr := tc.drainRetry([]string{"n1"}, path)
	if dr.Tasks != 5 {
		t.Errorf("drained %d tasks, want 5", dr.Tasks)
	}
	events := tc.fetchEvents([]string{"n1"}, path)
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true}, dr)
}

// migrate moves a session through the given front, fails the test
// unless the migration succeeds, and returns the API's report.
func (tc *testCluster) migrate(front, id, target string) MigrateInfo {
	tc.t.Helper()
	body := []byte(fmt.Sprintf(`{"target":%q}`, target))
	code, b := tc.do(front, http.MethodPost, "/v1/cluster/sessions/"+id+"/migrate", body)
	if code != http.StatusOK {
		tc.t.Fatalf("migrate %s to %s via %s: %d %s", id, target, front, code, b)
	}
	var mi MigrateInfo
	if err := json.Unmarshal(b, &mi); err != nil {
		tc.t.Fatal(err)
	}
	return mi
}

// TestMigrateRefusedWhileFrozen: a session's handoff freeze serializes
// its migrations. While the shard is frozen a migrate answers 409
// already migrating and leaves the session where it is; once the
// freeze is lifted the same migrate succeeds.
func TestMigrateRefusedWhileFrozen(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{1, 2}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	chain := tc.byID["n1"].node.Route(info.ID)
	owner, target := chain[0], chain[1]
	srv := tc.byID[owner].srv
	if _, err := srv.HandoffSession(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"target":%q}`, target))
	code, b := tc.do(owner, http.MethodPost, "/v1/cluster/sessions/"+info.ID+"/migrate", body)
	if code != http.StatusConflict || !strings.Contains(string(b), "already migrating") {
		t.Fatalf("migrate of a frozen session: %d %s, want 409 already migrating", code, b)
	}
	if !srv.HasSession(info.ID) {
		t.Fatalf("the refused migrate moved %s off %s", info.ID, owner)
	}
	if err := srv.AbortHandoff(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if mi := tc.migrate(owner, info.ID, target); mi.To != target {
		t.Fatalf("migrate after the unfreeze went to %s, want %s", mi.To, target)
	}
	dr := tc.drainRetry(tc.ids, path)
	if dr.Tasks != 2 {
		t.Errorf("drained %d tasks, want 2", dr.Tasks)
	}
}

// TestClusterMigrationTourKeepsReplica moves one session along all six
// ordered moves among its ring chain R, c1, c2 and requires, after
// each, that the new owner's replica target holds the replica. The old
// owner's cleanup must spare it in two cases: when the new owner
// re-protected onto the old owner itself, and when neither owner is R,
// so both ship to R and the old owner's purge drop lands on the new
// owner's replica.
func TestClusterMigrationTourKeepsReplica(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	chain := tc.byID["n1"].node.Route(info.ID)
	ring, c1, c2 := chain[0], chain[1], chain[2]

	from := ring
	for _, to := range []string{c1, c2, ring, c2, c1, ring} {
		tc.migrate(from, info.ID, to)
		if target := tc.byID[to].node.replicaTarget(info.ID); !tc.holdsReplica(target, info.ID) {
			t.Errorf("move %s→%s: the new owner's replica target %s holds no replica", from, to, target)
		}
		from = to
	}

	dr := tc.drainRetry(tc.ids, path)
	if dr.Tasks != 3 {
		t.Errorf("drained %d tasks, want 3", dr.Tasks)
	}
	events := tc.fetchEvents(tc.ids, path)
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true}, dr)
}

// TestClusterKillAfterMigrateDrains kills a session's new owner right
// after a migration, before any other mutation: the replica the new
// owner built on its way in (here on the old owner) is the only copy
// left, so the survivors must promote it and drain every acked task.
func TestClusterKillAfterMigrateDrains(t *testing.T) {
	tc := startCluster(t, 3, nil)
	// The old owner learns the new one died only by probing it: nothing
	// else it does contacts the new owner.
	for _, id := range tc.ids {
		t.Cleanup(tc.byID[id].node.StartProber(50 * time.Millisecond))
	}
	info := tc.createSession("n1", `{"cores":2}`)
	path := "/v1/sessions/" + info.ID
	if code, b := tc.do("n1", http.MethodPost, path+"/tasks", taskBatch([]int{1, 2, 3, 4}, true)); code != http.StatusOK {
		t.Fatalf("seed submit: %d %s", code, b)
	}
	chain := tc.byID["n1"].node.Route(info.ID)
	ring, c1, c2 := chain[0], chain[1], chain[2]

	tc.migrate(ring, info.ID, c1)
	tc.kill(c1)

	survivors := []string{ring, c2}
	dr := tc.drainRetry(survivors, path)
	if dr.Tasks != 4 {
		t.Errorf("drained %d tasks, acked 4", dr.Tasks)
	}
	events := tc.fetchEvents(survivors, path)
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true}, dr)
}

// TestClusterMembershipChurn walks the membership surface while
// clients submit through n3: join n4 (moving exactly the sessions the
// ring diff predicts), migrate a session to a pinned target, drain n3
// out of the ring (it evacuates what it owns yet keeps forwarding),
// then kill whichever of n1 and n2 owns more sessions. The steps wait
// for 1/4, 1/2, 5/8 and 3/4 of the batches; traffic that outruns a
// step only costs it concurrency. Every session then drains through n3
// to a trace that audits clean.
func TestClusterMembershipChurn(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.addNode("n4", nil) // before traffic: the clients read tc.byID
	all, fronts := []string{"n1", "n2", "n3", "n4"}, []string{"n3"}
	const clients, batches, perBatch = 6, 5, 6
	ids := make([]string, clients)
	acked := make([]map[int]bool, clients)          // each written by its client alone, read after wg.Wait
	reports := make(chan struct{}, clients*batches) // one per batch, acked or not: no send blocks
	var wg sync.WaitGroup
	defer wg.Wait() // a Fatal below must not leave goroutines failing a done test
	for i := range ids {
		ids[i], acked[i] = tc.createSession(tc.ids[i%3], `{"cores":2}`).ID, map[int]bool{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]int, perBatch)
				for j := range batch {
					batch[j] = perBatch*b + j + 1
				}
				if tc.submitRetry(fronts, "/v1/sessions/"+ids[i], taskBatch(batch, true)) {
					for _, id := range batch {
						acked[i][id] = true
					}
				}
				reports <- struct{}{}
				time.Sleep(2 * time.Millisecond) // keep traffic in flight across the steps
			}
		}(i)
	}
	seen := 0
	waitBatches := func(frac float64) {
		for ; seen < int(frac*clients*batches); seen++ {
			<-reports
		}
	}
	holds := func(node string) (held []string) {
		for _, id := range ids {
			if tc.byID[node].srv.HasSession(id) {
				held = append(held, id)
			}
		}
		return held
	}
	ring := func(nodes ...string) *Ring {
		r, err := NewRing(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	onOwners := func(step string, r *Ring, sessions []string) {
		for _, id := range sessions {
			if o := r.Owner(id); !tc.byID[o].srv.HasSession(id) {
				t.Fatalf("after %s: session %s is not on its ring owner %s", step, id, o)
			}
		}
	}

	waitBatches(0.25)
	oldRing, newRing := ring(all[:3]...), ring(all...)
	wantMoved := 0
	for _, id := range ids {
		if oldRing.Owner(id) != newRing.Owner(id) {
			wantMoved++
		}
	}
	join := tc.join("n1", "n4")
	if join.Failed != 0 || join.Epoch != 2 || len(join.Nodes) != 4 || join.Moved != wantMoved {
		t.Fatalf("join n4: %+v (want epoch 2, 4 nodes, 0 failed, %d moved as the ring diff predicts)", join, wantMoved)
	}
	onOwners("join", newRing, ids)

	waitBatches(0.5)
	target := "n4"
	if newRing.Owner(ids[0]) == "n4" {
		target = "n1"
	}
	if mi := tc.migrate("n1", ids[0], target); mi.To != target || !mi.Pinned || !tc.byID[target].srv.HasSession(ids[0]) {
		t.Fatalf("migrate %s: %+v (want a pinned move to %s, which holds a live shard)", ids[0], mi, target)
	}

	waitBatches(0.625)
	evacuated := holds("n3")
	if leave := tc.leave("n1", "n3"); leave.Failed != 0 || leave.Epoch != 3 || len(leave.Nodes) != 3 || leave.Moved != len(evacuated) {
		t.Fatalf("leave n3: %+v (want epoch 3, 3 nodes, 0 failed, %d moved)", leave, len(evacuated))
	}
	if held := holds("n3"); len(held) > 0 {
		t.Fatalf("after leave: departed n3 still holds %v", held)
	}
	onOwners("leave", ring("n1", "n2", "n4"), evacuated)

	waitBatches(0.75)
	victim := "n1" // never the pinned target
	if target == "n1" || (target != "n2" && len(holds("n2")) > len(holds("n1"))) {
		victim = "n2"
	}
	victimOwned := len(holds(victim))
	tc.kill(victim)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for _, id := range all {
		if id == victim {
			continue
		}
		// n3 left the ring; the rest hold the epoch-3 view.
		if info, member := tc.nodeInfo(id), id != "n3"; info.Member != member || (member && (info.Epoch != 3 || len(info.Peers) != 3)) {
			t.Errorf("node %s final view: %+v", id, info)
		}
	}
	for i, id := range ids {
		path := "/v1/sessions/" + id
		dr := tc.drainRetry(fronts, path)
		auditTrace(t, server.PlatformSpec{Cores: 2}, tc.fetchEvents(fronts, path), acked[i], dr)
	}
	promotions := 0.0
	for _, id := range all {
		promotions += tc.byID[id].srv.Registry().Counter(obs.ClusterPromotions).Value()
	}
	if victimOwned > 0 && promotions == 0 {
		t.Errorf("killed %s owned %d sessions, but nothing promoted", victim, victimOwned)
	}
	t.Logf("join moved %d, migrate %s to %s, leave evacuated %d, killed %s owning %d, %v promotions",
		join.Moved, ids[0], target, len(evacuated), victim, victimOwned, promotions)
}

// TestStampedForwardPullsMembership: a node that missed a broadcast
// learns the newer view from the first forward stamped with it. n1
// installs epoch 2 alone; one session request through n1 for a
// session the ring places on n2 carries epoch 2 and n1's address, and
// n2 must pull and install the view. The pull runs on its own
// goroutine, so the test polls n2's /v1/cluster/info, bounded.
func TestStampedForwardPullsMembership(t *testing.T) {
	tc := startCluster(t, 3, nil)
	newer := tc.byID["n1"].node.view().wire()
	newer.Epoch++
	if ok, err := tc.byID["n1"].node.applyMembership(newer); !ok || err != nil {
		t.Fatalf("install epoch %d on n1: %v, %v", newer.Epoch, ok, err)
	}
	if got := tc.nodeInfo("n2").Epoch; got != 1 {
		t.Fatalf("n2 holds epoch %d before the forward, want 1", got)
	}
	var id string
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("s-pull-%d", i); tc.byID["n1"].node.Route(cand)[0] == "n2" {
			id = cand
		}
	}
	if code, b := tc.do("n1", http.MethodGet, "/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("forwarded status of an unknown session: %d %s, want 404", code, b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tc.nodeInfo("n2").Epoch != newer.Epoch {
		if time.Now().After(deadline) {
			t.Fatalf("n2 did not install epoch %d within 10 s of a stamped forward", newer.Epoch)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := tc.byID["n2"].srv.Registry().Counter(obs.ClusterMembershipSyncs).Value(); got != 1 {
		t.Errorf("n2 cluster.membership_syncs %v, want 1", got)
	}
}
