package node

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/inlog"
	"repro/internal/kvserver"
)

// testConfig is a loopback node on free ports whose store honors
// FASTER_TEST_SHARDS (CI's sharded job), with background commits, health
// sampling and flight recording off unless a test turns them on.
func testConfig() Config {
	cfg := Config{Addr: "127.0.0.1:0", Shards: 1}
	if v := os.Getenv("FASTER_TEST_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			cfg.Shards = n
		}
	}
	return cfg
}

func open(t *testing.T, cfg Config) *Node {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func dial(t *testing.T, n *Node, id string) *kvserver.Client {
	t.Helper()
	c, err := kvserver.Dial(n.Addr().String(), id)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// eventually polls cond until it holds, failing the test after timeout.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

func u64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// readsAs reports whether c reads want under k.
func readsAs(c *kvserver.Client, k, want []byte) bool {
	v, found, err := c.Get(k)
	return err == nil && found && string(v) == string(want)
}

func replStats(t *testing.T, c *kvserver.Client) *kvserver.ReplStats {
	t.Helper()
	snap, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Repl == nil {
		t.Fatal("STATS carries no repl block")
	}
	return snap.Repl
}

// TestReplicaRejectsIngest: a replica has no writable store for the ingest
// pump, so asking for an ingest listener on one is a configuration error,
// not a silently missing listener.
func TestReplicaRejectsIngest(t *testing.T) {
	cfg := testConfig()
	cfg.ReplicaOf = "127.0.0.1:1"
	cfg.InlogAddr = "127.0.0.1:0"
	cfg.InlogFsync = "batch"
	n, err := Open(cfg)
	if err == nil {
		n.Close()
		t.Fatal("Open accepted a replica with an ingest listener")
	}
	if !strings.Contains(err.Error(), "-inlog-addr") || !strings.Contains(err.Error(), "-replica-of") {
		t.Fatalf("error does not name the conflicting flags: %v", err)
	}
}

// TestRestoreGatesReplListener: an instant-restored primary accepts no
// replica until its store is restored — shipping follows commits, which a
// restoring store refuses — and then serves the replica the recovered
// prefix.
func TestRestoreGatesReplListener(t *testing.T) {
	cfg := testConfig()
	cfg.Dir = t.TempDir()
	first := open(t, cfg)
	c := dial(t, first, "")
	for i := 0; i < 200; i++ {
		if _, err := c.Set(key(i), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Commit(true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ { // a log-only suffix for the restore to replay
		if _, err := c.Set(key(i), u64(uint64(i)+1000)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Commit(false); err != nil {
		t.Fatal(err)
	}
	first.Close()

	release := make(chan struct{})
	waitRestored = func(s *faster.Store) error {
		<-release
		return s.WaitRestored()
	}
	t.Cleanup(func() { waitRestored = (*faster.Store).WaitRestored })
	cfg.InstantRestore = true
	cfg.ReplAddr = "127.0.0.1:0"
	primary := open(t, cfg)
	pc := dial(t, primary, "")

	rcfg := testConfig()
	rcfg.ReplicaOf = primary.ReplAddr().String()
	replica := open(t, rcfg)
	rc := dial(t, replica, "")

	time.Sleep(300 * time.Millisecond) // time enough to attach, were the gate open
	if r := replStats(t, pc).Replicas; r != 0 {
		close(release)
		t.Fatalf("%d replica(s) attached before the store was restored", r)
	}
	close(release)
	eventually(t, "the replica to attach", func() bool { return replStats(t, pc).Replicas == 1 })
	eventually(t, "the replica to install the recovered prefix", func() bool {
		return readsAs(rc, key(199), u64(1199))
	})
}

// TestPromoteResumesSessions: a replica promoted after serving reads takes
// writes, and a client reconnecting with its session ID learns the CPR
// point the promoted store recovered for it.
func TestPromoteResumesSessions(t *testing.T) {
	pcfg := testConfig()
	pcfg.ReplAddr = "127.0.0.1:0"
	primary := open(t, pcfg)
	rcfg := testConfig()
	rcfg.ReplicaOf = primary.ReplAddr().String()
	replica := open(t, rcfg)

	pc := dial(t, primary, "")
	for i := 0; i < 10; i++ {
		if _, err := pc.Set(key(i), u64(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	point, err := pc.Commit(false)
	if err != nil || point != 10 {
		t.Fatalf("commit: point %d, err %v; want 10", point, err)
	}
	rc := dial(t, replica, "")
	eventually(t, "the replica to serve the commit", func() bool { return readsAs(rc, key(9), u64(9)) })
	if _, err := rc.Set(key(0), u64(0)); err == nil {
		t.Fatal("replica accepted a write before promotion")
	}

	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Promote(); err == nil {
		t.Fatal("second Promote succeeded")
	}
	resumed := dial(t, replica, pc.ID())
	if got := resumed.CPRPoint(); got != point {
		t.Fatalf("resumed session CPR point %d, want %d", got, point)
	}
	if _, err := resumed.Set(key(100), u64(100)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if !readsAs(resumed, key(100), u64(100)) || !readsAs(resumed, key(9), u64(9)) {
		t.Fatal("promoted store lost a write or the shipped prefix")
	}
}

// TestPromotedStatsReportShipping: once promoted, a node's STATS repl block
// describes it as the primary it now is — its attached replicas and its own
// commits — not the dead upstream it replicated before.
func TestPromotedStatsReportShipping(t *testing.T) {
	pcfg := testConfig()
	pcfg.ReplAddr = "127.0.0.1:0"
	primary := open(t, pcfg)
	mcfg := testConfig()
	mcfg.ReplicaOf = primary.ReplAddr().String()
	mcfg.ReplAddr = "127.0.0.1:0"
	middle := open(t, mcfg)
	if err := middle.Promote(); err != nil {
		t.Fatal(err)
	}
	primary.Close()

	lcfg := testConfig()
	lcfg.ReplicaOf = middle.ReplAddr().String()
	open(t, lcfg)
	c := dial(t, middle, "")
	eventually(t, "a replica to attach to the promoted node", func() bool {
		return replStats(t, c).Replicas == 1
	})
	before := replStats(t, c)
	if before.Role != "primary" || before.Upstream != "" {
		t.Fatalf("promoted node reports role %q upstream %q", before.Role, before.Upstream)
	}
	if _, err := c.Set(key(1), u64(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(false); err != nil {
		t.Fatal(err)
	}
	eventually(t, "the applied version to advance past the promotion", func() bool {
		return replStats(t, c).AppliedVersion > before.AppliedVersion
	})
}

// TestIngestSurvivesReopen: every acked ingest record is applied exactly
// once across a Close and reopen of the same directory, whatever the pump
// and the commits had covered at Close.
func TestIngestSurvivesReopen(t *testing.T) {
	cfg := testConfig()
	cfg.Dir = t.TempDir()
	cfg.AutoCommit = 20 * time.Millisecond
	cfg.InlogAddr = "127.0.0.1:0"
	cfg.InlogFsync = "batch"
	const keys, msgs = 8, 400

	send := func(n *Node, k []byte, count int) {
		t.Helper()
		ic, err := inlog.DialIngest(n.IngestAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer ic.Close()
		for i := 0; i < count; i++ {
			key := k
			if key == nil {
				key = []byte(fmt.Sprintf("ctr-%d", i%keys))
			}
			if err := ic.Send(inlog.Message{Op: inlog.OpRMW, Key: key, Value: u64(1)}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < count; i++ {
			if _, err := ic.Ack(); err != nil {
				t.Fatal(err)
			}
		}
	}

	first := open(t, cfg)
	send(first, nil, msgs)
	time.Sleep(50 * time.Millisecond) // let some, not necessarily all, records commit
	first.Close()

	second := open(t, cfg)
	// The pump applies in log order, so once a marker sent after reopen is
	// applied, every record before it is too.
	send(second, []byte("marker"), 1)
	c := dial(t, second, "")
	eventually(t, "the pump to apply the marker", func() bool { return readsAs(c, []byte("marker"), u64(1)) })
	for k := 0; k < keys; k++ {
		want := u64(msgs / keys)
		if !readsAs(c, []byte(fmt.Sprintf("ctr-%d", k)), want) {
			v, _, _ := c.Get([]byte(fmt.Sprintf("ctr-%d", k)))
			t.Fatalf("ctr-%d = %x after reopen, want %x (each acked record applied once)", k, v, want)
		}
	}
}

// TestSettingsReachBothRoles: a primary's and a replica's kvserver get every
// serving setting from one path, and a promoted replica keeps them (a
// replica once missed -idle-timeout, so a promoted replica never reaped idle
// connections). The health verdict is served complete right after Open.
func TestSettingsReachBothRoles(t *testing.T) {
	cfg := testConfig()
	cfg.AutoCommit = 123 * time.Millisecond
	cfg.IdleTimeout = 45 * time.Second
	cfg.CoalesceBytes = 777
	cfg.CoalesceOps = 9
	cfg.HealthInterval = time.Hour
	cfg.DebugAddr = "127.0.0.1:0"
	pcfg := cfg
	pcfg.ReplAddr = "127.0.0.1:0"
	primary := open(t, pcfg)
	rcfg := cfg
	rcfg.ReplicaOf = primary.ReplAddr().String()
	replica := open(t, rcfg)

	check := func(name string, n *Node) {
		t.Helper()
		kv := n.kv
		if kv.AutoCommit != cfg.AutoCommit || kv.IdleTimeout != cfg.IdleTimeout {
			t.Errorf("%s: autocommit %v idle-timeout %v, want %v %v", name,
				kv.AutoCommit, kv.IdleTimeout, cfg.AutoCommit, cfg.IdleTimeout)
		}
		if kv.CoalesceBytes != cfg.CoalesceBytes || kv.CoalesceOps != cfg.CoalesceOps {
			t.Errorf("%s: coalescing %d bytes / %d ops, want %d / %d", name,
				kv.CoalesceBytes, kv.CoalesceOps, cfg.CoalesceBytes, cfg.CoalesceOps)
		}
		// One sample at an hourly interval: only Start's baseline can have
		// filled the verdict.
		v, err := dial(t, n, "").Health()
		if err != nil || len(v.Detectors) == 0 {
			t.Errorf("%s: HEALTH op: %+v, %v", name, v, err)
		}
		resp, err := http.Get("http://" + n.debugLn.Addr().String() + "/health")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hv health.Verdict
		if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil || resp.StatusCode != http.StatusOK ||
			len(hv.Detectors) != len(v.Detectors) {
			t.Errorf("%s: /health: status %d, %d detectors, %v", name, resp.StatusCode, len(hv.Detectors), err)
		}
	}
	check("primary", primary)
	check("replica", replica)
	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	check("promoted replica", replica)
}
