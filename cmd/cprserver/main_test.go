package main

import (
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/kvserver"
)

// stubReplica is the smallest kvserver.ReplicaBackend: enough to build a
// replica-mode server over a store.
type stubReplica struct{ store *faster.Store }

func (r stubReplica) Read([]byte) ([]byte, bool, error) { return nil, false, nil }
func (r stubReplica) RecoveredPoint(string) uint64      { return 0 }
func (r stubReplica) Upstream() string                  { return "" }
func (r stubReplica) Store() *faster.Store              { return r.store }
func (r stubReplica) ReplStats() *kvserver.ReplStats    { return nil }

// TestServeOptionsReachBothServerKinds: a primary's and a replica's kvserver
// get every flag-derived setting from the one shared setup path (a replica
// once missed -idle-timeout, so a promoted replica never reaped idle
// connections).
func TestServeOptionsReachBothServerKinds(t *testing.T) {
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 8})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	opts := serveOptions{
		autocommit:    123 * time.Millisecond,
		idleTimeout:   45 * time.Second,
		coalesceBytes: 777,
		coalesceOps:   9,
		healthIvl:     time.Hour,
	}
	for name, srv := range map[string]*kvserver.Server{
		"primary": kvserver.NewServer(store),
		"replica": kvserver.NewReplicaServer(stubReplica{store}),
	} {
		stop := opts.setup(srv, store)
		if srv.AutoCommit != opts.autocommit {
			t.Errorf("%s: AutoCommit = %v, want %v", name, srv.AutoCommit, opts.autocommit)
		}
		if srv.IdleTimeout != opts.idleTimeout {
			t.Errorf("%s: IdleTimeout = %v, want %v", name, srv.IdleTimeout, opts.idleTimeout)
		}
		if srv.CoalesceBytes != opts.coalesceBytes || srv.CoalesceOps != opts.coalesceOps {
			t.Errorf("%s: coalescing = %d bytes / %d ops, want %d / %d", name,
				srv.CoalesceBytes, srv.CoalesceOps, opts.coalesceBytes, opts.coalesceOps)
		}
		if srv.Health == nil {
			t.Errorf("%s: health verdict not wired", name)
		}
		stop()
	}
}
