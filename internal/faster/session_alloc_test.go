//go:build !race

package faster

import (
	"encoding/binary"
	"testing"
)

// TestSessionOpsAllocFree guards the public session API: an op that
// completes synchronously runs on the caller's buffers and allocates
// nothing — including the read-copy-update RMW that the first touch of each
// key after a fold-over commit takes. CI runs it with the other AllocFree
// guards (no race detector — it instruments allocations).
func TestSessionOpsAllocFree(t *testing.T) {
	s, err := Open(shardedConfig(testShardCount(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	const hot, cold = 16, 128
	for i := uint64(0); i < hot; i++ {
		sess.Upsert(key(i), u64(i))
	}
	kb, vb := key(0), u64(1)
	put := func(k uint64) { binary.LittleEndian.PutUint64(kb, k) }
	cases := []struct {
		name string
		op   func(i uint64)
	}{
		{"upsert", func(i uint64) {
			put(i % hot)
			if st := sess.Upsert(kb, vb); st != Ok {
				t.Fatalf("upsert: %v", st)
			}
		}},
		{"read-hit", func(i uint64) {
			put(i % hot)
			if _, st := sess.Read(kb, nil); st != Ok {
				t.Fatalf("read hit: %v", st)
			}
		}},
		{"read-miss", func(i uint64) {
			put(1000 + i)
			if _, st := sess.Read(kb, nil); st != NotFound {
				t.Fatalf("read miss: %v", st)
			}
		}},
		{"rmw-in-place", func(i uint64) {
			put(i % hot)
			if st := sess.RMW(kb, vb); st != Ok {
				t.Fatalf("in-place rmw: %v", st)
			}
		}},
		{"delete", func(i uint64) {
			// Alternates a live key's tombstone with a never-written key.
			put(i % hot)
			if i%2 == 1 {
				put(1000 + i)
			}
			if st := sess.Delete(kb); st != Ok && st != NotFound {
				t.Fatalf("delete: %v", st)
			}
		}},
	}
	for _, c := range cases {
		var i uint64
		if allocs := testing.AllocsPerRun(200, func() { c.op(i); i++ }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", c.name, allocs)
		}
	}

	// After a fold-over commit every record is read-only, so the first RMW
	// of each key copies it to the tail. The keys' records fit in one page,
	// so no run allocates a log frame.
	for i := uint64(hot); i < hot+cold; i++ {
		sess.Upsert(key(i), u64(i))
	}
	driveCommit(t, s, []*Session{sess}, CommitOptions{})
	next := uint64(hot)
	if allocs := testing.AllocsPerRun(cold-1, func() {
		put(next)
		next++
		if st := sess.RMW(kb, vb); st != Ok {
			t.Fatalf("rcu rmw: %v", st)
		}
	}); allocs != 0 {
		t.Errorf("rcu rmw allocates %.1f times per op, want 0", allocs)
	}
	if got := s.metrics.pendings.Value(); got != 0 {
		t.Fatalf("%d ops went pending on the in-memory path", got)
	}
}
