package faster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

func bkey(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i)*0x9e3779b97f4a7c15)
	return b
}

// TestSessionOpPath: ops on the single scratch-op path read back what was
// written — including values that change size between writes — serials keep
// advancing monotonically, no synchronous op is left parked, and the writes
// join a CPR commit like any other op. Allocation-freedom of the same path is
// guarded by TestSessionOpsAllocFree.
func TestSessionOpPath(t *testing.T) {
	store, err := Open(shardedConfig(testShardCount(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	const n = 500
	var lastSerial uint64
	for i := 0; i < n; i++ {
		if st := sess.Upsert(bkey(i), []byte(fmt.Sprintf("val-%d", i))); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
		if s := sess.Serial(); s <= lastSerial {
			t.Fatalf("serial went backwards: %d after %d", s, lastSerial)
		} else {
			lastSerial = s
		}
		// Interleave reads: the returned slice is only valid until the next
		// op, so compare immediately.
		if i%7 == 0 {
			v, st := sess.Read(bkey(i), nil)
			if st != Ok || string(v) != fmt.Sprintf("val-%d", i) {
				t.Fatalf("interleaved read %d: %q %v", i, v, st)
			}
		}
	}
	if c := sess.PendingCount(); c != 0 {
		t.Fatalf("%d synchronous ops left parked", c)
	}
	for i := 0; i < n; i++ {
		v, st := sess.Read(bkey(i), nil)
		if st != Ok || string(v) != fmt.Sprintf("val-%d", i) {
			t.Fatalf("read back %d: %q %v", i, v, st)
		}
	}

	// The session's read buffer and the caller's buffers stay correct when
	// key/value sizes change shape between ops.
	for i := 0; i < 64; i++ {
		big := bytes.Repeat([]byte{byte(i)}, 200+i)
		if st := sess.Upsert(bkey(i), big); st != Ok {
			t.Fatalf("resized upsert %d: %v", i, st)
		}
		v, st := sess.Read(bkey(i), nil)
		if st != Ok || len(v) != 200+i || v[0] != byte(i) {
			t.Fatalf("resized read %d: len=%d %v", i, len(v), st)
		}
		if v, st := sess.Read(bkey(n-1), nil); st != Ok || string(v) != fmt.Sprintf("val-%d", n-1) {
			t.Fatalf("short read after resized read %d: %q %v", i, v, st)
		}
	}

	res := driveCommit(t, store, []*Session{sess}, CommitOptions{})
	if got := res.Serials[sess.ID()]; got != sess.Serial() {
		t.Fatalf("commit point %d, want session serial %d", got, sess.Serial())
	}
}

// TestSessionOpDeleteNotFound: deletes, deletes of missing keys and
// not-found reads run on the same path, and a read never returns a value
// left over from an earlier op.
func TestSessionOpDeleteNotFound(t *testing.T) {
	store, err := Open(shardedConfig(testShardCount(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	for i := 0; i < 32; i++ {
		sess.Upsert(bkey(i), bkey(i))
	}
	for i := 0; i < 32; i += 2 {
		if st := sess.Delete(bkey(i)); st != Ok {
			t.Fatalf("delete %d: %v", i, st)
		}
	}
	if st := sess.Delete(bkey(1000)); st != NotFound {
		t.Fatalf("delete of missing key: %v", st)
	}
	for i := 0; i < 32; i++ {
		v, st := sess.Read(bkey(i), nil)
		if i%2 == 0 {
			if st != NotFound || v != nil {
				t.Fatalf("read deleted %d: %q %v", i, v, st)
			}
		} else if st != Ok || string(v) != string(bkey(i)) {
			t.Fatalf("read kept %d: %v", i, st)
		}
	}
}

// TestSessionOpOwnership: an op that goes Pending runs from a private copy
// of its key and value. After the Pending return the caller overwrites its
// buffers, yet the cold read and the parked cold RMW complete for the
// original key and input.
func TestSessionOpOwnership(t *testing.T) {
	n := testShardCount(1)
	cfg := shardedConfig(n)
	cfg.PageBits, cfg.MemPages = 12, 4*n
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sess := s.StartSession()
	defer sess.StopSession()
	// 3000 records of 32 B per shard far exceed 16 KB of memory, so the
	// first keys are on storage.
	for i := uint64(0); i < 3000*uint64(n); i++ {
		if st := sess.Upsert(key(i), u64(i+1)); st != Ok {
			t.Fatalf("upsert %d: %v", i, st)
		}
	}

	kb := key(1)
	var got []byte
	var gotSt Status = Pending
	if _, st := sess.Read(kb, func(v []byte, st Status) {
		got, gotSt = append([]byte(nil), v...), st
	}); st != Pending {
		t.Fatalf("cold read: %v, want pending", st)
	}
	copy(kb, key(2))

	kr, in := key(3), u64(100)
	if st := sess.RMW(kr, in); st != Pending {
		t.Fatalf("cold rmw: %v, want pending", st)
	}
	copy(kr, key(4))
	copy(in, u64(7))

	sess.CompletePending(true)
	if gotSt != Ok || !bytes.Equal(got, u64(2)) {
		t.Fatalf("cold read of key 1 delivered %v %x, want ok %x", gotSt, got, u64(2))
	}
	for k, want := range map[uint64]uint64{3: 4 + 100, 4: 5} {
		v, found := readVal(t, sess, k)
		if !found || binary.LittleEndian.Uint64(v) != want {
			t.Fatalf("key %d after parked rmw: %x found=%v, want %d", k, v, found, want)
		}
	}
}
