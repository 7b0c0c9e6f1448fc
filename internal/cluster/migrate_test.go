package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"dvfsched/internal/server"
)

// TestClusterMigrationParity: a migrated session is the session it
// was. Strict and clamped multi-task batches go in through a front
// that does not own the session; right after the migration, before any
// new mutation, the target's trace and status must equal the source's
// byte for byte, and the session then drains through the same front to
// a trace the durability audit accepts.
func TestClusterMigrationParity(t *testing.T) {
	tc := startCluster(t, 3, nil)
	info := tc.createSession(tc.ids[0], `{"cores":4}`)
	path := "/v1/sessions/" + info.ID
	chain := tc.byID[tc.ids[0]].node.Route(info.ID)
	owner, target, front := chain[0], chain[1], chain[2]

	acked := map[int]bool{}
	next := 1
	for b := 0; b < 12; b++ {
		// Odd batches are clamped and stamped at t=0, so every task in
		// them lands at the session clock; even ones are strict and
		// arrive after it.
		clamp := b%2 == 1
		var sb strings.Builder
		fmt.Fprintf(&sb, `{"clamp":%t,"tasks":[`, clamp)
		for i := 0; i < 5; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			arrival := float64(next) * 0.05
			if clamp {
				arrival = 0
			}
			fmt.Fprintf(&sb, `{"id":%d,"cycles":%g,"arrival":%g}`, next, 0.5+float64(next%7), arrival)
			acked[next] = true
			next++
		}
		sb.WriteString(`]}`)
		if code, body := tc.do(front, http.MethodPost, path+"/tasks", []byte(sb.String())); code != http.StatusOK {
			t.Fatalf("batch %d (clamp %v) via %s: %d %s", b, clamp, front, code, body)
		}
	}

	read := func(node, suffix string) []byte {
		t.Helper()
		code, body := tc.do(node, http.MethodGet, path+suffix, nil)
		if code != http.StatusOK {
			t.Fatalf("GET %s%s on %s: %d %s", path, suffix, node, code, body)
		}
		return body
	}
	status := func(node string) server.SessionInfo {
		t.Helper()
		var si server.SessionInfo
		if err := json.Unmarshal(read(node, ""), &si); err != nil {
			t.Fatal(err)
		}
		return si
	}
	srcEvents, srcStatus := read(owner, "/events"), status(owner)
	if srcStatus.Pending == 0 {
		t.Fatalf("nothing pending at the migration: %+v", srcStatus)
	}
	if mi := tc.migrate(front, info.ID, target); mi.From != owner || mi.To != target {
		t.Fatalf("migrate reported %s→%s, want %s→%s", mi.From, mi.To, owner, target)
	}
	if got := read(target, "/events"); !bytes.Equal(got, srcEvents) {
		t.Fatalf("target's trace differs from the source's: %d vs %d bytes", len(got), len(srcEvents))
	}
	if got := status(target); got != srcStatus {
		t.Fatalf("target's status %+v, source's %+v", got, srcStatus)
	}

	dr := tc.drainRetry([]string{front}, path)
	if dr.Tasks != len(acked) {
		t.Errorf("drained %d tasks, %d were acked", dr.Tasks, len(acked))
	}
	auditTrace(t, info.PlatformSpec, tc.fetchEvents([]string{front}, path), acked, dr)
}
