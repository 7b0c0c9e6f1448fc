package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

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
			return parseJSONL(tc.t, b)
		default:
			tc.t.Fatalf("events %s: %d %s", path, code, b)
		}
	}
	tc.t.Fatalf("events %s: retries exhausted", path)
	return nil
}

// auditTrace is the lossless-and-deterministic check shared by the
// churn tests: the trace is gapless, every acknowledged task arrives
// and completes exactly once, no task arrives twice (exactly-once
// across ownership flips), and a serial rebuild of the session from
// the trace alone regenerates it byte-identically.
func auditTrace(t *testing.T, spec server.PlatformSpec, events []obs.Event, acked map[int]bool) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	arrivals := map[int]int{}
	completes := map[int]int{}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d: seq %d — trace has a gap or reorder", i, ev.Seq)
		}
		switch ev.Kind {
		case obs.KindArrival:
			arrivals[ev.Task]++
		case obs.KindComplete:
			completes[ev.Task]++
		}
	}
	for id := range acked {
		if arrivals[id] != 1 {
			t.Errorf("acked task %d has %d arrivals, want 1", id, arrivals[id])
		}
		if completes[id] != 1 {
			t.Errorf("acked task %d has %d completions, want 1", id, completes[id])
		}
	}
	for id, c := range arrivals {
		if c != 1 {
			t.Errorf("task %d has %d arrivals", id, c)
		}
	}
	rb, err := server.ReplaySession(context.Background(), spec, 0, nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Sess.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := obs.AppendBinary(nil, rb.Rec.Events()), obs.AppendBinary(nil, events)
	if !bytes.Equal(got, want) {
		t.Fatalf("oracle rebuild diverges from trace: %d vs %d encoded bytes", len(got), len(want))
	}
}

// TestClusterJoinDuringTraffic grows a 3-node ring to 4 while clients
// submit: the join must move exactly the sessions whose ring owner
// changes (bounded movement, computed here from the rings themselves),
// land those sessions live on their new owner, converge every node on
// the epoch-2 view, and lose nothing — each session drains to a
// gapless exactly-once trace that rebuilds byte-identically.
func TestClusterJoinDuringTraffic(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.CheckpointEvery = 4 })
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
	tc.addNode("n4", func(c *Config) { c.CheckpointEvery = 4 })

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
		auditTrace(t, s.info.PlatformSpec, events, acked[si])
	}
}

// TestClusterMigrateVsSubmit races a planned migration against live
// submitters: the operator moves the session to an explicit (pinned)
// off-ring target via a non-owner front mid-traffic. The freeze fence
// must keep every admission exactly-once — a submit either lands before
// the freeze and rides the shipped checkpoint, or retries onto the new
// owner — and the post-migration trace must rebuild byte-identically.
func TestClusterMigrateVsSubmit(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.CheckpointEvery = 4 })
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
	auditTrace(t, info.PlatformSpec, events, acked)
}

// TestClusterMigrateVsDelete races a migration against the session's
// drain: whichever wins, the drain must report every accepted task
// exactly once and the surviving trace must audit clean. The loser
// fails cleanly — a drain hitting the freeze window retries through
// the moved marker; a migrate hitting a drained session is refused.
func TestClusterMigrateVsDelete(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.CheckpointEvery = 4 })
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
	auditTrace(t, info.PlatformSpec, events, acked)
}

// TestClusterLeaveWhileOwner drains a node that owns sessions out of
// the ring: the leave must evacuate every live session it owns to that
// session's post-leave ring owner, flip the survivors to the epoch-2
// view, and keep the departed node usable as a forwarding front. All
// sessions then drain losslessly through the survivors.
func TestClusterLeaveWhileOwner(t *testing.T) {
	tc := startCluster(t, 3, func(c *Config) { c.CheckpointEvery = 4 })
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
		auditTrace(t, s.info.PlatformSpec, events, acked)
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
	drop, err := appendFrame(nil, owner, []frameEntry{{ID: info.ID, Drop: true}})
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
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true})
}

// migrate moves a session through the given front and fails the test
// unless the migration succeeds.
func (tc *testCluster) migrate(front, id, target string) {
	tc.t.Helper()
	body := []byte(fmt.Sprintf(`{"target":%q}`, target))
	if code, b := tc.do(front, http.MethodPost, "/v1/cluster/sessions/"+id+"/migrate", body); code != http.StatusOK {
		tc.t.Fatalf("migrate %s to %s via %s: %d %s", id, target, front, code, b)
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
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true})
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
	auditTrace(t, info.PlatformSpec, events, map[int]bool{1: true, 2: true, 3: true, 4: true})
}
