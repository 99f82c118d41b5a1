package kvserver

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/storage"
)

// TestIdleSessionReaped covers Server.IdleTimeout: a connection that goes
// quiet past the cap is closed server-side with its FASTER session released,
// the reap is counted, and the client can resume the same logical session by
// reconnecting with its session ID.
func TestIdleSessionReaped(t *testing.T) {
	store, err := faster.Open(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.IdleTimeout = 60 * time.Millisecond
	addr, err := serveAsync(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); store.Close() }()

	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(false); err != nil {
		t.Fatal(err)
	}
	id := c.ID()

	// Go quiet past the idle cap; the server must reap the connection.
	reaps := store.Metrics().Counter("kvserver_idle_reaps_total")
	deadline := time.Now().Add(5 * time.Second)
	for reaps.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The client's next call fails against the closed socket...
	var errSeen error
	for i := 0; i < 50 && errSeen == nil; i++ {
		if _, _, err := c.Get([]byte("k")); err != nil {
			errSeen = err
		}
		time.Sleep(5 * time.Millisecond)
	}
	if errSeen == nil {
		t.Fatal("client calls kept succeeding after the server reaped the connection")
	}
	// ...but the logical session survives: reconnecting with the ID resumes it.
	c2, err := Dial(addr, id)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.ID() != id {
		t.Fatalf("resumed session id %q, want %q", c2.ID(), id)
	}
	if val, found, err := c2.Get([]byte("k")); err != nil || !found || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("resumed session read: %q %v %v", val, found, err)
	}
}

// TestRestoreStatsOverWire covers the RESTORE stats block: a server brought
// up via instant restore reports warm-up progress through OpStats, and keeps
// reporting the final statistics once fully warm.
func TestRestoreStatsOverWire(t *testing.T) {
	dev := storage.NewMemDevice()
	ckpts := storage.NewMemCheckpointStore()
	cfg := faster.Config{IndexBuckets: 1 << 8, PageBits: 13, MemPages: 8,
		Device: dev, Checkpoints: ckpts}
	s, err := faster.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := s.StartSession()
	for i := uint64(0); i < 256; i++ {
		if st := sess.Upsert(u64(i), u64(i+1)); st == faster.Pending {
			sess.CompletePending(true)
		}
	}
	commit := func(withIndex bool) {
		tok, err := s.Commit(faster.CommitOptions{WithIndex: withIndex})
		if err != nil {
			t.Fatal(err)
		}
		for {
			if res, ok := s.TryResult(tok); ok {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				return
			}
			sess.Refresh()
			sess.CompletePending(false)
			time.Sleep(100 * time.Microsecond)
		}
	}
	commit(true)
	for i := uint64(0); i < 256; i++ {
		if st := sess.Upsert(u64(i), u64(i+1000)); st == faster.Pending {
			sess.CompletePending(true)
		}
	}
	commit(false)
	sess.StopSession()
	s.Close()

	cfg.InstantRestore = true
	r, err := faster.Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(r)
	addr, err := serveAsync(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); r.Close() }()

	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Restore == nil || snap.Restore.Mode != "instant" {
		t.Fatalf("stats restore block = %+v", snap.Restore)
	}
	// Reads work throughout the warm-up and see only committed state.
	if val, found, err := c.Get(u64(3)); err != nil || !found || !bytes.Equal(val, u64(1003)) {
		t.Fatalf("read during restore: %q %v %v", val, found, err)
	}

	if err := r.WaitRestored(); err != nil {
		t.Fatal(err)
	}
	snap, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	rst := snap.Restore
	if rst == nil || rst.Restoring {
		t.Fatalf("final stats restore block = %+v", rst)
	}
	if rst.ColdBuckets() != 0 || rst.WarmBuckets() == 0 {
		t.Fatalf("final warm counts: warm=%d cold=%d", rst.WarmBuckets(), rst.ColdBuckets())
	}
	for _, sh := range rst.Shards {
		if sh.ReplayedRecords != sh.SuffixRecords || sh.TimeToWarmNanos <= 0 {
			t.Fatalf("shard %d final restore stats: %+v", sh.Shard, sh)
		}
	}
}
