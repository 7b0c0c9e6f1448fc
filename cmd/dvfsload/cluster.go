package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dvfsched/internal/cluster"
	"dvfsched/internal/obs"
	"dvfsched/internal/server"
	"dvfsched/internal/trace"
)

// clusterNode is one member of the in-process cluster the harness
// boots: a full dvfschedd stack (server + cluster node + HTTP server)
// on a real loopback socket, so killing it produces the refused
// connections a crashed process would.
type clusterNode struct {
	id   string
	srv  *server.Server
	node *cluster.Node
	http *http.Server
	addr string
}

// churnReport is what the churn orchestrator learned, for the final
// scorecard and the post-run invariant checks.
type churnReport struct {
	join        cluster.MembershipChange
	wantMoved   int
	mig         cluster.MigrateInfo
	leave       cluster.MembershipChange
	evacuated   int
	victim      string
	victimOwned int
	killedAt    int64
}

// runClusterHarness is -mode cluster: a full membership-churn smoke.
// It boots a 3-node cluster in process plus a solo 4th node, drives
// -clients concurrent sessions through it with the cluster client
// protocol (retry on transport/5xx, duplicate-ID 400 on a retry means
// the lost ack was real), and while submits are in flight walks the
// whole admin surface: join the 4th node (asserting the rebalance
// moved exactly the sessions the consistent-hash ring diff predicts),
// migrate one session to an explicit pinned target, drain a node out
// of the ring (it must evacuate everything it owns yet keep serving as
// the clients' forwarding front), and finally kill a member outright.
// The survivors are then held to the single-node standard: every
// acknowledged task appears exactly once in a gapless event trace, and
// a serial in-process rebuild of each trace regenerates it
// byte-identically and reproduces the drain cost. Any accepted-task
// loss or oracle mismatch is a non-zero exit.
func runClusterHarness(opts options, w io.Writer) error {
	const nSeed = 3
	nodes, seedIDs, err := bootCluster(nSeed)
	if err != nil {
		return err
	}
	defer func() {
		for _, n := range nodes {
			_ = n.http.Close()
			n.node.Close()
			n.srv.Close()
		}
	}()
	// The joiner boots solo before traffic starts; it enters the ring
	// mid-run via the admin API, not via its boot config.
	joiner, err := bootNode("n4")
	if err != nil {
		return err
	}
	nodes["n4"] = joiner
	allIDs := append(append([]string(nil), seedIDs...), "n4")
	fmt.Fprintf(w, "cluster: %d in-process nodes (%s) + joiner n4, %d clients, %d tasks/session\n",
		nSeed, strings.Join(seedIDs, " "), opts.clients, opts.sessionTasks)

	// One session per client, created round-robin through the seed
	// members.
	sessions := make([]server.SessionInfo, opts.clients)
	for i := range sessions {
		front := nodes[seedIDs[i%len(seedIDs)]]
		if err := postJSON(front.addr+"/v1/sessions", opts.spec, &sessions[i]); err != nil {
			return fmt.Errorf("create session %d: %w", i, err)
		}
	}

	// All clients front through n3: it is the node the churn later
	// drains out of the ring, and a departed node keeping its fronts
	// alive — forwarding into a ring it no longer belongs to — is
	// exactly the contract worth smoking. The kill victim is chosen
	// among n1/n2, so n3 is guaranteed alive end to end.
	fronts := []string{nodes["n3"].addr}

	lat := obs.NewRegistry().Histogram("cluster.submit_latency_s", latencyBuckets)
	var ackedBatches atomic.Int64
	totalBatches := 0
	for range sessions {
		totalBatches += (opts.sessionTasks + opts.batch - 1) / opts.batch
	}
	trafficDone := make(chan struct{})
	rep := &churnReport{}
	churnErr := make(chan error, 1)
	//dvfslint:allow goroleak the churn goroutine is joined via churnErr below
	go func() {
		churnErr <- runChurn(nodes, seedIDs, allIDs, sessions, rep, &ackedBatches, totalBatches, trafficDone)
	}()

	type sessionAudit struct {
		acked map[int]bool
		err   error
	}
	audits := make([]sessionAudit, len(sessions))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			audits[i] = sessionAudit{acked: map[int]bool{}}
			rng := rand.New(rand.NewSource(opts.seed + int64(i)))
			recs := make([]trace.Record, opts.sessionTasks)
			clock := 0.0
			for j := range recs {
				clock += rng.Float64() * 2
				recs[j] = trace.Record{ID: j + 1, Cycles: 0.5 + rng.Float64()*40, Arrival: clock}
			}
			path := "/v1/sessions/" + sessions[i].ID + "/tasks"
			for lo := 0; lo < len(recs); lo += opts.batch {
				hi := min(lo+opts.batch, len(recs))
				ok, err := clusterSubmit(fronts, path, server.SubmitRequest{Tasks: recs[lo:hi], Clamp: true}, lat)
				if err != nil {
					audits[i].err = err
					return
				}
				if ok {
					for _, r := range recs[lo:hi] {
						audits[i].acked[r.ID] = true
					}
				}
				ackedBatches.Add(1)
				// A small gap per batch keeps traffic in flight across
				// the churn steps instead of finishing before them.
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(trafficDone)
	if err := <-churnErr; err != nil {
		return err
	}
	for i := range audits {
		if audits[i].err != nil {
			return fmt.Errorf("session %d (%s): %w", i, sessions[i].ID, audits[i].err)
		}
	}

	// Every survivor must hold the post-leave epoch-3 three-member view;
	// the departed n3 must no longer count itself a member.
	for _, id := range allIDs {
		if id == rep.victim {
			continue
		}
		var info cluster.NodeInfo
		if err := adminJSON(http.MethodGet, nodes[id].addr+"/v1/cluster/info", nil, &info); err != nil {
			return fmt.Errorf("final view of %s: %w", id, err)
		}
		if id == "n3" {
			if info.Member {
				return fmt.Errorf("departed n3 still lists itself as a member: %+v", info)
			}
		} else if info.Epoch != 3 || !info.Member || len(info.Peers) != 3 {
			return fmt.Errorf("node %s final view: %+v (want epoch 3, member, 3 peers)", id, info)
		}
	}

	// Drain and audit every session through the departed front.
	totalTasks, totalEvents, failovers := 0, 0, 0
	for i, info := range sessions {
		drain, events, err := clusterDrainAndFetch(fronts, "/v1/sessions/"+info.ID)
		if err != nil {
			return fmt.Errorf("session %d (%s): %w", i, info.ID, err)
		}
		if err := auditClusterTrace(opts.spec, events, drain, audits[i].acked); err != nil {
			return fmt.Errorf("session %d (%s): %w", i, info.ID, err)
		}
		totalEvents += len(events)
		if drain != nil {
			totalTasks += drain.Tasks
		}
	}

	// Per-node scorecard, read straight off the in-process registries.
	for _, id := range allIDs {
		reg := nodes[id].srv.Registry().Snapshot()
		mark := ""
		switch id {
		case rep.victim:
			mark = "  (killed mid-run)"
		case "n3":
			mark = "  (left the ring, kept forwarding)"
		case "n4":
			mark = "  (joined mid-run)"
		}
		promotions := reg.Counters[obs.ClusterPromotions]
		failovers += int(promotions)
		fmt.Fprintf(w, "node %s: %.0f requests, %.0f forwards, %.0f ships, %.0f migrations, %.0f promotions%s\n",
			id, reg.Counters[obs.ServerRequests], reg.Counters[obs.ClusterForwards],
			reg.Counters[obs.ClusterShips], reg.Counters[obs.ClusterMigrations], promotions, mark)
	}
	snap := lat.Snapshot()
	fmt.Fprintf(w, "join n4: epoch %d, moved %d sessions (ring diff predicted %d)\n",
		rep.join.Epoch, rep.join.Moved, rep.wantMoved)
	fmt.Fprintf(w, "migrate %s -> %s (pinned)\n", rep.mig.Session, rep.mig.To)
	fmt.Fprintf(w, "leave n3: epoch %d, evacuated %d sessions\n", rep.leave.Epoch, rep.evacuated)
	fmt.Fprintf(w, "killed %s (owning %d sessions) after %d/%d acked batches; %d promotions\n",
		rep.victim, rep.victimOwned, rep.killedAt, totalBatches, failovers)
	fmt.Fprintf(w, "submit latency p50 %.3fms  p99 %.3fms over %d acked submits\n",
		snap.Quantile(0.50)*1000, snap.Quantile(0.99)*1000, int(snap.Count))
	fmt.Fprintf(w, "oracle parity: %d sessions, %d tasks, %d events — all byte-identical\n",
		len(sessions), totalTasks, totalEvents)
	if rep.victimOwned > 0 && failovers == 0 {
		return fmt.Errorf("a session owner was killed but nothing promoted — failover never exercised")
	}
	fmt.Fprintln(w, "all checks passed")
	return nil
}

// runChurn is the admin-plane side of the smoke, sequenced against the
// client traffic by acked-batch thresholds: join at 1/4 of the run,
// migrate at 1/2, leave at 5/8, kill at 3/4. If traffic outruns a
// threshold the step still executes — the churn sequence always
// completes, it just loses its concurrency.
func runChurn(nodes map[string]*clusterNode, seedIDs, allIDs []string, sessions []server.SessionInfo,
	rep *churnReport, ackedBatches *atomic.Int64, totalBatches int, trafficDone <-chan struct{}) error {
	waitBatches := func(frac float64) {
		goal := int64(frac * float64(totalBatches))
		for ackedBatches.Load() < goal {
			select {
			case <-trafficDone:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}
	admin := nodes["n1"].addr

	// Join n4. The ring's bounded-movement property is checkable from
	// outside: the only sessions allowed to move are exactly those whose
	// owner differs between the 3-node and 4-node rings.
	waitBatches(0.25)
	oldRing, err := cluster.NewRing(seedIDs, 0)
	if err != nil {
		return err
	}
	newRing, err := cluster.NewRing(allIDs, 0)
	if err != nil {
		return err
	}
	for _, s := range sessions {
		if oldRing.Owner(s.ID) != newRing.Owner(s.ID) {
			rep.wantMoved++
		}
	}
	err = adminJSON(http.MethodPost, admin+"/v1/cluster/nodes/n4",
		map[string]string{"addr": nodes["n4"].addr}, &rep.join)
	if err != nil {
		return fmt.Errorf("join n4: %w", err)
	}
	if rep.join.Failed != 0 || rep.join.Epoch != 2 || len(rep.join.Nodes) != 4 {
		return fmt.Errorf("join n4: %+v (want epoch 2, 4 nodes, 0 failed)", rep.join)
	}
	if rep.join.Moved != rep.wantMoved {
		return fmt.Errorf("join n4 moved %d sessions, ring diff predicts %d", rep.join.Moved, rep.wantMoved)
	}
	for _, s := range sessions {
		if o := newRing.Owner(s.ID); !nodes[o].srv.HasSession(s.ID) {
			return fmt.Errorf("after join: session %s is not on its ring owner %s", s.ID, o)
		}
	}

	// Migrate session 0 to an explicit off-ring target; the placement
	// must pin it there.
	waitBatches(0.5)
	mover := sessions[0].ID
	target := "n4"
	if newRing.Owner(mover) == "n4" {
		target = "n1"
	}
	err = adminJSON(http.MethodPost, admin+"/v1/cluster/sessions/"+mover+"/migrate",
		map[string]string{"target": target}, &rep.mig)
	if err != nil {
		return fmt.Errorf("migrate %s to %s: %w", mover, target, err)
	}
	if rep.mig.To != target || !rep.mig.Pinned {
		return fmt.Errorf("migrate %s: %+v (want pinned move to %s)", mover, rep.mig, target)
	}
	if !nodes[target].srv.HasSession(mover) {
		return fmt.Errorf("migrate %s: target %s has no live shard", mover, target)
	}

	// Drain n3 out of the ring: it must evacuate every session it owns
	// to that session's post-leave ring owner, then keep forwarding.
	waitBatches(0.625)
	ring3, err := cluster.NewRing([]string{"n1", "n2", "n4"}, 0)
	if err != nil {
		return err
	}
	var evacuated []string
	for _, s := range sessions {
		if nodes["n3"].srv.HasSession(s.ID) {
			evacuated = append(evacuated, s.ID)
		}
	}
	rep.evacuated = len(evacuated)
	if err := adminJSON(http.MethodDelete, admin+"/v1/cluster/nodes/n3", nil, &rep.leave); err != nil {
		return fmt.Errorf("leave n3: %w", err)
	}
	if rep.leave.Failed != 0 || rep.leave.Epoch != 3 || len(rep.leave.Nodes) != 3 || rep.leave.Moved != len(evacuated) {
		return fmt.Errorf("leave n3: %+v (want epoch 3, 3 nodes, 0 failed, %d moved)", rep.leave, len(evacuated))
	}
	for _, id := range evacuated {
		if nodes["n3"].srv.HasSession(id) {
			return fmt.Errorf("after leave: departed n3 still holds %s", id)
		}
		if o := ring3.Owner(id); !nodes[o].srv.HasSession(id) {
			return fmt.Errorf("after leave: evacuated session %s is not on its ring owner %s", id, o)
		}
	}

	// Kill the remaining member owning the most sessions — never the
	// migrate target, whose pinned shard the final checks reference.
	waitBatches(0.75)
	for _, cand := range []string{"n1", "n2"} {
		if cand == rep.mig.To {
			continue
		}
		owned := 0
		for _, s := range sessions {
			if nodes[cand].srv.HasSession(s.ID) {
				owned++
			}
		}
		if rep.victim == "" || owned > rep.victimOwned {
			rep.victim, rep.victimOwned = cand, owned
		}
	}
	_ = nodes[rep.victim].http.Close()
	rep.killedAt = ackedBatches.Load()
	return nil
}

// bootCluster starts n cluster nodes on ephemeral loopback ports.
func bootCluster(n int) (map[string]*clusterNode, []string, error) {
	lns := make([]net.Listener, n)
	ids := make([]string, n)
	peers := make(map[string]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		lns[i] = ln
		ids[i] = fmt.Sprintf("n%d", i+1)
		peers[ids[i]] = "http://" + ln.Addr().String()
	}
	nodes := make(map[string]*clusterNode, n)
	for i, id := range ids {
		srv := server.New(server.Config{})
		node, err := cluster.NewNode(cluster.Config{ID: id, Peers: peers}, srv)
		if err != nil {
			return nil, nil, err
		}
		hs := &http.Server{Handler: node.Handler()}
		nodes[id] = &clusterNode{id: id, srv: srv, node: node, http: hs, addr: peers[id]}
		//dvfslint:allow goroleak Serve returns when the harness closes the node's server at teardown
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hs, lns[i])
	}
	return nodes, ids, nil
}

// bootNode starts one solo node on an ephemeral loopback port; it
// becomes a member only when the admin API joins it to the ring.
func bootNode(id string) (*clusterNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := "http://" + ln.Addr().String()
	srv := server.New(server.Config{})
	node, err := cluster.NewNode(cluster.Config{ID: id, Peers: map[string]string{id: addr}}, srv)
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: node.Handler()}
	//dvfslint:allow goroleak Serve returns when the harness closes the node's server at teardown
	go func() { _ = hs.Serve(ln) }()
	return &clusterNode{id: id, srv: srv, node: node, http: hs, addr: addr}, nil
}

// adminJSON issues one cluster-admin call and decodes the response.
// The admin plane is expected to answer first time — any transport
// error or non-200 is a smoke failure, not a retry.
func adminJSON(method, url string, body, out any) error {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = json.Marshal(body); err != nil {
			return err
		}
	}
	code, respBody, err := rawDo(method, url, raw)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, code, respBody)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(respBody, out)
}

// clusterSubmit pushes one batch with the cluster retry protocol and
// reports whether it is known accepted. Transport errors, 5xx and 429
// rotate fronts and retry; a duplicate-task 400 on a retry means an
// earlier attempt was accepted but its ack was lost in the kill.
func clusterSubmit(fronts []string, path string, body server.SubmitRequest, lat *obs.Histogram) (bool, error) {
	raw, err := jsonBody(body)
	if err != nil {
		return false, err
	}
	for attempt := 0; attempt < 50; attempt++ {
		front := fronts[attempt%len(fronts)]
		t0 := time.Now()
		code, respBody, err := rawDo(http.MethodPost, front+path, raw)
		switch {
		case err != nil, code >= 500, code == http.StatusTooManyRequests:
			time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
		case code == http.StatusOK:
			lat.Observe(time.Since(t0).Seconds())
			return true, nil
		case code == http.StatusBadRequest && attempt > 0 && bytes.Contains(respBody, []byte("duplicate")):
			return true, nil
		default:
			return false, fmt.Errorf("submit: status %d: %s", code, respBody)
		}
	}
	return false, fmt.Errorf("submit: retries exhausted")
}

// clusterDrainAndFetch drains a session through any surviving front
// and fetches its final trace. A 204 on a drain retry means an earlier
// attempt drained but the ack was lost; the trace is still served.
func clusterDrainAndFetch(fronts []string, path string) (*server.DrainResponse, []obs.Event, error) {
	var drain *server.DrainResponse
	drained := false
	for attempt := 0; attempt < 50 && !drained; attempt++ {
		front := fronts[attempt%len(fronts)]
		code, body, err := rawDo(http.MethodDelete, front+path, nil)
		switch {
		case err != nil || code >= 500 || code == http.StatusTooManyRequests:
			time.Sleep(time.Duration(10*(attempt+1)) * time.Millisecond)
		case code == http.StatusOK:
			var dr server.DrainResponse
			if err := jsonDecode(body, &dr); err != nil {
				return nil, nil, err
			}
			drain, drained = &dr, true
		case code == http.StatusNoContent:
			drained = true
		default:
			return nil, nil, fmt.Errorf("drain: status %d: %s", code, body)
		}
	}
	if !drained {
		return nil, nil, fmt.Errorf("drain: retries exhausted")
	}
	var events []obs.Event
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		front := fronts[attempt%len(fronts)]
		code, body, err := rawDo(http.MethodGet, front+path+"/events", nil)
		if err != nil || code != http.StatusOK {
			lastErr = fmt.Errorf("events: status %d, err %v", code, err)
			time.Sleep(20 * time.Millisecond)
			continue
		}
		events, err = obs.ReadJSONL(bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		return drain, events, nil
	}
	return nil, nil, lastErr
}

// jsonBody marshals a request body once so retries reuse the bytes.
func jsonBody(v any) ([]byte, error) { return json.Marshal(v) }

func jsonDecode(b []byte, v any) error { return json.Unmarshal(b, v) }

// rawDo issues one HTTP request and returns status + body; transport
// errors come back for the caller's retry loop, never fatal.
func rawDo(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// formatCost renders a cost for exact comparison: the shortest decimal
// that round-trips the float64, so equal bits compare equal and
// nothing else does.
func formatCost(c float64) string { return strconv.FormatFloat(c, 'g', -1, 64) }

// auditClusterTrace holds one surviving trace to the durability
// contract: gapless sequence numbers, every acknowledged task exactly
// once, and a serial oracle rebuild (server.ReplaySession over the
// trace alone, then drain) that regenerates the trace byte-for-byte
// and reproduces the acked drain cost.
func auditClusterTrace(spec server.PlatformSpec, events []obs.Event, drain *server.DrainResponse, acked map[int]bool) error {
	arrivals := map[int]int{}
	completes := map[int]int{}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			return fmt.Errorf("event %d has seq %d: trace gap or reorder", i, ev.Seq)
		}
		switch ev.Kind {
		case obs.KindArrival:
			arrivals[ev.Task]++
		case obs.KindComplete:
			completes[ev.Task]++
		}
	}
	ids := make([]int, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if arrivals[id] != 1 || completes[id] != 1 {
			return fmt.Errorf("acked task %d: %d arrivals, %d completions in the surviving trace",
				id, arrivals[id], completes[id])
		}
	}
	if drain != nil && drain.Tasks != len(arrivals) {
		return fmt.Errorf("drain acked %d tasks, trace holds %d", drain.Tasks, len(arrivals))
	}

	rb, err := server.ReplaySession(context.Background(), spec, 0, nil, events)
	if err != nil {
		return fmt.Errorf("oracle rebuild: %w", err)
	}
	res, err := rb.Sess.Drain(context.Background())
	if err != nil {
		return fmt.Errorf("oracle drain: %w", err)
	}
	got := obs.AppendBinary(nil, rb.Rec.Events())
	want := obs.AppendBinary(nil, events)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("oracle rebuild diverges from surviving trace (%d vs %d encoded bytes)", len(got), len(want))
	}
	if drain != nil {
		if g, w := formatCost(res.TotalCost), formatCost(drain.TotalCost); g != w {
			return fmt.Errorf("oracle cost %s != acked drain cost %s", g, w)
		}
	}
	return nil
}
