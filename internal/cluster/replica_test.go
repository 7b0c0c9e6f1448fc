package cluster

import (
	"testing"
	"time"

	"dvfsched/internal/server"
)

// TestReplicaOpenDoesNotHoldStoreLock pins the lock order fix in
// replicaStore.open: it must release the store lock before taking the
// replica's lock. EnsureLocal nests the other way — it holds rep.mu
// and calls replicas.drop, which takes rs.mu — so an open that waits
// for rep.mu while holding rs.mu deadlocks a re-open of a session
// racing its own promotion. The test holds a replica's lock the way a
// promotion does, lets a re-open block on it, and requires the store
// itself to stay usable.
func TestReplicaOpenDoesNotHoldStoreLock(t *testing.T) {
	rs := &replicaStore{m: map[string]*replica{}}
	rep := rs.open("s1", server.PlatformSpec{Cores: 1}, "n1")

	rep.mu.Lock() // the promotion side holds the replica lock...
	reopened := make(chan struct{})
	go func() {
		rs.open("s1", server.PlatformSpec{Cores: 2}, "n1") // ...while the owner re-opens
		close(reopened)
	}()
	// Give the re-open time to park on rep.mu. With the store lock
	// still held there (the old nesting), the drop below can never run.
	time.Sleep(50 * time.Millisecond)

	dropped := make(chan struct{})
	go func() {
		rs.drop("s1")
		close(dropped)
	}()
	select {
	case <-dropped:
	case <-time.After(2 * time.Second):
		t.Fatal("replicaStore is locked while open waits on the replica: a promotion would deadlock here")
	}

	rep.mu.Unlock()
	select {
	case <-reopened:
	case <-time.After(2 * time.Second):
		t.Fatal("re-open never completed after the replica lock was released")
	}
	if rep.spec.Cores != 2 {
		t.Fatalf("re-open did not refresh the spec: cores = %d, want 2", rep.spec.Cores)
	}
}
