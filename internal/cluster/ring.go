// Package cluster is the distributed control plane for dvfschedd: a
// consistent-hash ring places each session on an owner node (plus a
// failover chain), any node fronts any session by forwarding to the
// owner (internal/server.Router), and the owner replicates each
// session by shipping its binary obs event log to the next live node
// on the ring. When the owner dies, the replica promotes lazily on the
// first routed operation: it replays the log's arrivals into a fresh
// engine, which re-derives the same schedule, and resumes admission —
// no accepted task is lost, because a submit is only acknowledged
// after its events reached the replica.
//
// Membership is dynamic: the -peers flag only seeds epoch 1, and the
// versioned admin API (POST/DELETE /v1/cluster/nodes/{id}) grows or
// shrinks the ring at runtime. Each change installs a whole new
// immutable view at epoch+1, rebalancing only the bounded fraction of
// sessions whose owner changes — by planned drain-and-handoff
// migration (POST /v1/cluster/sessions/{id}/migrate), not by killing
// anything. The failure model is fail-stop with one replica per
// session: the cluster serves through any single node death; losing a
// session's owner and replica together loses that session's
// unreplicated tail.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVNodes is the ring's virtual-node count per peer: enough that
// a 3-node ring stays within a few percent of even, cheap enough that
// building the ring is instant.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring with virtual nodes. Keys
// and nodes hash onto a 64-bit circle (FNV-1a); a key's owner is the
// first virtual point at or after it, and its failover candidates are
// the following distinct nodes in ring order. Adding or removing one
// node moves only the keys adjacent to that node's points — the
// bounded-movement property the rebalance tests pin down.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted membership
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node IDs with vnodes virtual
// points per node (<= 0 means DefaultVNodes). Node IDs must be unique
// and non-empty; order does not matter.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	r := &Ring{
		points: make([]ringPoint, 0, len(sorted)*vnodes),
		nodes:  sorted,
	}
	seen := make(map[string]bool, len(sorted))
	for _, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n)
		}
		seen[n] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions across nodes are astronomically unlikely but
		// must still order deterministically on every node.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

func hashPoint(node string, v int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node)) // hash.Hash writes never fail
	_, _ = h.Write([]byte("#"))
	_, _ = h.Write([]byte(strconv.Itoa(v)))
	return mix64(h.Sum64())
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key)) // hash.Hash writes never fail
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: FNV-1a of short, similar strings
// (sequential session IDs, "node#vnode" labels) leaves enough
// structure in the raw sum to skew arc lengths badly; a full-avalanche
// finalizer restores the uniformity consistent hashing assumes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Nodes returns the ring's membership, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Owner returns the node owning key, ignoring liveness.
func (r *Ring) Owner(key string) string {
	return r.Candidates(key, 1, nil)[0]
}

// Candidates returns up to n distinct nodes for key in ring order
// starting at the owner, skipping nodes alive reports false for (nil
// alive means all nodes are alive). The result is the key's failover
// chain: index 0 owns the key, index 1 replicates it, and so on.
func (r *Ring) Candidates(key string, n int, alive func(string) bool) []string {
	if n <= 0 {
		return nil
	}
	kh := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		if alive != nil && !alive(p.node) {
			continue
		}
		out = append(out, p.node)
	}
	return out
}
