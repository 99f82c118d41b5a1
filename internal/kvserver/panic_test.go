package kvserver

import (
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// panicReplica is a replica backend whose reads panic, standing in for a
// bug in the code a connection handler runs.
type panicReplica struct{ store *faster.Store }

func (r panicReplica) Read([]byte) ([]byte, bool, error) { panic("replica read bug") }
func (r panicReplica) RecoveredPoint(string) uint64      { return 0 }
func (r panicReplica) Upstream() string                  { return "" }
func (r panicReplica) Store() *faster.Store              { return r.store }

// panicChildEnv names the checkpoint directory of the re-executed child in
// TestHandlerPanicDumpsFlight.
const panicChildEnv = "KVSERVER_PANIC_CHILD_DIR"

// TestHandlerPanicDumpsFlight: a panic in a connection handler — where every
// op runs — leaves the flight recorder's rings behind as the flight-panic
// checkpoint artifact before the process dies. The panic must kill the
// process, so the server runs in a re-executed child.
func TestHandlerPanicDumpsFlight(t *testing.T) {
	if dir := os.Getenv(panicChildEnv); dir != "" {
		servePanickingReplica(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHandlerPanicDumpsFlight$", "-test.count=1")
	cmd.Env = append(os.Environ(), panicChildEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived the handler panic:\n%s", out)
	}
	cs, err := storage.NewDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := storage.ReadArtifactChecked(cs, "flight-panic")
	if err != nil {
		t.Fatalf("no flight-panic artifact after the child died (%v):\n%s", err, out)
	}
	dump, err := obs.DecodeFlightDump(payload)
	if err != nil {
		t.Fatalf("decode flight-panic: %v", err)
	}
	if len(dump.Events) == 0 {
		t.Fatal("flight-panic dump holds no events")
	}
}

// servePanickingReplica is the child's side: serve panicReplica over a
// directory checkpoint store, then read through it. The read kills the
// process; returning means the panic never fired.
func servePanickingReplica(t *testing.T, dir string) {
	cs, err := storage.NewDirCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	store, err := faster.Open(faster.Config{IndexBuckets: 1 << 8,
		Checkpoints: cs, Flight: obs.NewFlightRecorder(64)})
	if err != nil {
		t.Fatal(err)
	}
	// A commit leaves events for the dump to carry.
	sess := store.StartSession()
	token, err := store.Commit(faster.CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, done := store.TryResult(token); !done; _, done = store.TryResult(token) {
		sess.Refresh()
	}
	sess.StopSession()
	srv := NewReplicaServer(panicReplica{store})
	addr, err := serveAsync(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	c.Get([]byte("k")) //nolint:errcheck // the handler's panic ends the process
	time.Sleep(10 * time.Second)
	t.Fatal("handler panic did not end the process")
}
