package cluster

import (
	"net/http"
	"time"
)

// newClusterTransport builds the one tuned http.Transport every
// cluster-plane client on this node shares: replication frames,
// request forwards and health probes all draw from a single keep-alive
// pool per peer, so the steady state is a handful of long-lived
// connections per peer instead of a dial per ship. The idle caps are
// sized for a small cluster (every node talks to every peer): the
// per-host cap must exceed the frames usually in flight to one peer
// (at most one per session) plus concurrent forwards, or the pool
// itself would close and re-dial connections under load.
func newClusterTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 32
	t.IdleConnTimeout = 90 * time.Second
	return t
}
