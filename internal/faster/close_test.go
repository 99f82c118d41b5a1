package faster

import (
	"fmt"
	"io"
	"path"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// gatedMetaStore holds every commit's meta- artifact write until released
// and counts artifact writes begun after closed is set.
type gatedMetaStore struct {
	storage.CheckpointStore
	entered chan struct{} // signaled once a meta- write is held
	enter   sync.Once
	release chan struct{}
	closed  atomic.Bool
	late    atomic.Int32
}

func (g *gatedMetaStore) Create(name string) (io.WriteCloser, error) {
	if g.closed.Load() {
		g.late.Add(1)
	}
	if strings.HasPrefix(path.Base(name), "meta-") { // shard<i>/meta-<token> when partitioned
		g.enter.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.CheckpointStore.Create(name)
}

// TestCloseWaitsForCommitPersist: Close returns only after a commit that is
// writing its artifacts has finished, and nothing is written after it
// returns — a store reopened over the same checkpoints never races a late
// write from the closed one.
func TestCloseWaitsForCommitPersist(t *testing.T) {
	for _, shards := range []int{1, testShardCount(4)} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cs := &gatedMetaStore{
				CheckpointStore: storage.NewMemCheckpointStore(),
				entered:         make(chan struct{}),
				release:         make(chan struct{}),
			}
			cfg := shardedConfig(shards)
			cfg.Checkpoints = cs
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sess := s.StartSession()
			for i := uint64(0); i < 100; i++ {
				sess.Upsert(key(i), u64(i))
			}
			if _, err := s.Commit(CommitOptions{}); err != nil {
				t.Fatal(err)
			}
			for held := false; !held; {
				sess.Refresh()
				select {
				case <-cs.entered:
					held = true
				default:
				}
			}
			sess.StopSession()

			closed := make(chan struct{})
			go func() {
				s.Close()
				cs.closed.Store(true)
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a commit was writing its artifacts")
			case <-time.After(100 * time.Millisecond):
			}
			close(cs.release)
			<-closed
			time.Sleep(50 * time.Millisecond)
			if n := cs.late.Load(); n != 0 {
				t.Fatalf("%d artifact write(s) began after Close returned", n)
			}
		})
	}
}
