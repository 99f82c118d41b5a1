// Package node is one CPR server: the on-disk layout of a data directory,
// recover-or-fresh startup, and the serving stack of a primary or a read
// replica (kvserver, ingest pipeline, replication, health engine, debug
// HTTP), with promotion and an ordered shutdown.
package node

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/health"
	"repro/internal/inlog"
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/storage"
)

// Config has one field per cprserver flag, which documents it. A zero field
// turns its feature off; InlogFsync must name a policy when InlogAddr is set.
type Config struct {
	Addr, Dir                string
	Shards                   int
	AutoCommit               time.Duration
	InstantRestore           bool
	IdleTimeout              time.Duration
	DebugAddr                string
	ReplAddr, ReplicaOf      string
	FaultRate, FaultTornRate float64
	FaultSeed                uint64
	FaultLatency             time.Duration
	FlightRec, ReqTrace      int
	HealthInterval           time.Duration
	SLODurLag                time.Duration
	CoalesceBytes            int
	CoalesceOps              int
	InlogAddr, InlogFsync    string
	InlogSegmentBytes        int64
	InlogBatchRecords        int
	InlogBatchInterval       time.Duration
}

// The kvserver's reply-coalescing defaults, for cprserver's flag defaults.
const DefaultCoalesceBytes, DefaultCoalesceOps = kvserver.DefaultCoalesceBytes, kvserver.DefaultCoalesceOps

// waitRestored gates the replication listener; tests hold it closed.
var waitRestored = (*faster.Store).WaitRestored

// Node serves one store: a primary, or a read replica until Promote.
type Node struct {
	cfg                             Config
	store                           *faster.Store
	replica                         *repl.Replica // nil on a primary
	kv                              *kvserver.Server
	health                          *health.Engine
	kvLn, replLn, ingestLn, debugLn net.Listener
	shipper                         atomic.Pointer[repl.Server] // set once shipping starts
	promoted                        atomic.Bool
	served                          chan error // the kvserver's Serve result
	wg                              sync.WaitGroup

	mu      sync.Mutex
	closers []func() // run in reverse by Close
}

// Open builds the store — recovering a primary from its last commit, or
// starting a replica of cfg.ReplicaOf — and serves it on listeners bound
// before Open returns. On error nothing is left running.
func Open(cfg Config) (*Node, error) {
	if cfg.ReplicaOf != "" && cfg.InlogAddr != "" {
		return nil, errors.New("node: the ingest pipeline (-inlog-addr) cannot run on a replica (-replica-of): it has no writable store")
	}
	n := &Node{cfg: cfg, served: make(chan error, 1)}
	if err := n.open(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) open() (err error) {
	cfg := n.cfg
	sc := faster.Config{Shards: cfg.Shards, Metrics: obs.NewRegistry(), InstantRestore: cfg.InstantRestore}
	obs.RegisterBuildInfo(sc.Metrics, map[string]string{"shards": strconv.Itoa(max(cfg.Shards, 1))})
	obs.RegisterRuntimeMetrics(sc.Metrics)
	if cfg.FlightRec > 0 {
		sc.Flight = obs.NewFlightRecorder(cfg.FlightRec)
	}
	if cfg.ReqTrace > 0 {
		sc.ReqTrace = obs.NewRequestTracer(cfg.ReqTrace)
	}
	if cfg.Dir != "" {
		if err := DirStorage(&sc, cfg.Dir); err != nil {
			return err
		}
	}
	wrap := n.injectFaults(&sc)
	if cfg.ReplicaOf != "" {
		if n.replica, err = repl.NewReplica(repl.Config{Upstream: cfg.ReplicaOf, StoreConfig: sc}); err != nil {
			return err
		}
		n.store = n.replica.Store()
		n.onClose(n.store.Close, n.replica.Close)
		n.kv = kvserver.NewReplicaServer(n.replica)
	} else {
		if n.store, err = OpenStore(sc); err != nil {
			return err
		}
		n.onClose(n.store.Close)
		n.kv = kvserver.NewServer(n.store)
	}
	n.kv.AutoCommit = cfg.AutoCommit // a replica's takes effect after promotion
	n.kv.IdleTimeout = cfg.IdleTimeout
	n.kv.CoalesceBytes = cfg.CoalesceBytes
	n.kv.CoalesceOps = cfg.CoalesceOps
	n.kv.ReplStats = n.replStats

	// Each server closes the listener it serves; closing the listeners
	// after the servers catches those not served yet.
	listen := func(ln *net.Listener, addr string) {
		if addr != "" && err == nil {
			if *ln, err = net.Listen("tcp", addr); err == nil {
				n.onClose(func() { (*ln).Close() })
			}
		}
	}
	if n.kvLn, err = net.Listen("tcp", cfg.Addr); err == nil {
		n.onClose(func() { n.kvLn.Close() })
	}
	listen(&n.replLn, cfg.ReplAddr)
	listen(&n.ingestLn, cfg.InlogAddr)
	listen(&n.debugLn, cfg.DebugAddr)
	if err != nil {
		return err
	}
	n.startHealth()
	if n.debugLn != nil {
		mux := obs.NewDebugMux(n.store.Metrics(), n.store.Flight(), n.store.RequestTracer())
		if n.health != nil {
			mux.Handle("/health", n.health.Handler())
		}
		debug := &http.Server{Handler: mux}
		n.onClose(func() { debug.Close() })
		log.Printf("debug endpoints on http://%s/{metrics,metrics.prom,timeline,flight,trace,health,debug/pprof}", n.debugLn.Addr())
		go debug.Serve(n.debugLn) //nolint:errcheck // ErrServerClosed after Close
	}
	n.onClose(n.kv.Close)
	go func() { n.served <- n.kv.Serve(n.kvLn) }()
	if n.replLn != nil && n.replica == nil {
		n.ship(n.store)
	}
	if n.ingestLn != nil {
		stop, err := startIngest(n.store, cfg, n.ingestLn, wrap)
		if err != nil {
			return err
		}
		n.onClose(stop)
	}
	if n.replica != nil {
		log.Printf("replica of %s serving reads on %s (SIGHUP promotes)", cfg.ReplicaOf, n.kvLn.Addr())
	} else {
		log.Printf("serving on %s (autocommit %v)", n.kvLn.Addr(), cfg.AutoCommit)
	}
	return nil
}

// injectFaults wraps sc's storage in a seeded fault injector when a fault
// rate is set — transient I/O errors, torn artifact writes and latency
// spikes exercise the retry and verified-recovery paths under a normal
// workload — and returns the device wrapper for the ingest log's segments
// (nil when off).
func (n *Node) injectFaults(sc *faster.Config) func(storage.Device) (storage.Device, error) {
	cfg := n.cfg
	if cfg.FaultRate <= 0 && cfg.FaultTornRate <= 0 {
		return nil
	}
	fc := storage.FaultConfig{Seed: cfg.FaultSeed, ReadErrorRate: cfg.FaultRate, WriteErrorRate: cfg.FaultRate,
		TornWriteRate: cfg.FaultTornRate, Metrics: sc.Metrics, Flight: sc.Flight}
	if cfg.FaultLatency > 0 {
		fc.LatencyRate, fc.Latency = cfg.FaultRate, cfg.FaultLatency
	}
	inj := storage.NewInjector(fc)
	log.Printf("fault injection on: rate=%g torn=%g seed=%d latency=%v",
		cfg.FaultRate, cfg.FaultTornRate, cfg.FaultSeed, cfg.FaultLatency)
	devices := sc.DeviceFactory
	if devices == nil { // memory-backed: the fault paths still run
		sc.Checkpoints = storage.NewMemCheckpointStore()
		devices = func(int) (storage.Device, error) { return storage.NewMemDevice(), nil }
	}
	sc.Checkpoints = storage.NewFaultCheckpointStore(sc.Checkpoints, inj)
	wrap := func(d storage.Device) (storage.Device, error) { return storage.NewFaultDevice(d, inj), nil }
	sc.DeviceFactory = func(i int) (storage.Device, error) {
		d, err := devices(i)
		if err != nil {
			return nil, err
		}
		return wrap(d)
	}
	return wrap
}

// startHealth starts the health engine when HealthInterval is set: it
// samples the store's metrics every interval, runs the stall/SLO detectors,
// and captures an incident bundle in the checkpoint store when one fires.
func (n *Node) startHealth() {
	if n.cfg.HealthInterval <= 0 {
		return
	}
	n.health = health.New(health.Config{
		Registry:  n.store.Metrics(),
		Interval:  n.cfg.HealthInterval,
		SLODurLag: n.cfg.SLODurLag,
		Bundles:   n.store.Checkpoints(),
		Flight:    n.store.Flight(),
		Traces:    n.store.RequestTracer(),
		OnIncident: func(b *health.Bundle) {
			log.Printf("health: %s fired (%s); incident bundle incident-%s-%d captured (fasterctl incident)",
				b.Detector, b.Detail, b.Detector, b.Seq)
		},
	})
	n.health.Start()
	n.onClose(n.health.Stop)
	n.kv.Health = n.health.Verdict
	log.Printf("health engine sampling every %v (slo-durlag %v)", n.cfg.HealthInterval, n.cfg.SLODurLag)
}

// ship ships store's commits to replicas on the repl listener — a
// primary's from Open, a replica's from Promote — and makes the shipper the
// source of STATS' repl block. The listener accepts once the store is
// restored: shipping follows commits, which an instant-restored store
// refuses until warm.
func (n *Node) ship(store *faster.Store) {
	rs := repl.NewServer(store)
	rs.ClientAddr = n.kvLn.Addr().String()
	n.shipper.Store(rs)
	n.onClose(rs.Close)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		if err := waitRestored(store); err != nil {
			log.Printf("replication listener not started: %v", err)
			return
		}
		log.Printf("shipping to replicas on %s", n.replLn.Addr())
		if err := rs.Serve(n.replLn); err != nil {
			log.Printf("replication listener: %v", err)
		}
	}()
}

// replStats is STATS' repl block: the shipper's once shipping, else the
// replica's, else none. Swapping the source here, not in the kvserver's
// field, keeps promotion free of writes to state handlers read.
func (n *Node) replStats() *kvserver.ReplStats {
	if rs := n.shipper.Load(); rs != nil {
		return rs.ReplStats()
	}
	if n.replica != nil {
		return n.replica.ReplStats()
	}
	return nil
}

// Promote turns the replica into a primary at its last installed commit:
// pulling stops, shipping starts when ReplAddr is set, and the kvserver
// closes its replica connections so clients reconnect into sessions that
// learn their CPR points.
func (n *Node) Promote() error {
	if n.replica == nil || !n.promoted.CompareAndSwap(false, true) {
		return errors.New("node: not a replica, or already promoted")
	}
	store, err := n.replica.Promote()
	if err != nil {
		return err
	}
	log.Printf("promoted to primary at version %d", store.Version())
	if n.replLn != nil {
		n.ship(store)
	}
	n.kv.Promote(store)
	return nil
}

// Addr is the kvserver's bound address.
func (n *Node) Addr() net.Addr { return n.kvLn.Addr() }

// ReplAddr is the replication listener's bound address; set ReplAddr.
func (n *Node) ReplAddr() net.Addr { return n.replLn.Addr() }

// IngestAddr is the ingest listener's bound address; set InlogAddr.
func (n *Node) IngestAddr() net.Addr { return n.ingestLn.Addr() }

// Wait blocks until the kvserver stops serving: after Close (nil), or when
// its listener fails.
func (n *Node) Wait() error { return <-n.served }

// onClose registers teardown steps for Close, which runs every step in the
// reverse order of registration. Components register as they start —
// store, listeners, health, debug, kvserver, replication, ingest — so
// Close stops ingest (its pump writes into the store), then replication,
// the kvserver (draining its handlers), health, and last the store.
func (n *Node) onClose(steps ...func()) {
	n.mu.Lock()
	n.closers = append(n.closers, steps...)
	n.mu.Unlock()
}

// Close shuts the node down (see onClose for the order). Idempotent.
func (n *Node) Close() {
	n.mu.Lock()
	steps := n.closers
	n.closers = nil
	n.mu.Unlock()
	for i := len(steps) - 1; i >= 0; i-- {
		steps[i]()
	}
	n.wg.Wait()
}

// A data directory holds the HybridLog (hybridlog.dat, or
// hybridlog-shard<i>.dat per shard of a partitioned store), the checkpoint
// store — also home to incident bundles, flight dumps and ingest
// watermarks — and the ingest log's segments.

// CheckpointDir is the checkpoint directory of data directory dir.
func CheckpointDir(dir string) string { return filepath.Join(dir, "checkpoints") }

// InlogDir is the ingest log's segment directory of data directory dir.
func InlogDir(dir string) string { return filepath.Join(dir, "inlog") }

// DirStorage points cfg's devices and checkpoint store at data directory
// dir, creating it if needed. A partitioned store's shards share the one
// checkpoint store, which namespaces each shard under shard<i>/.
func DirStorage(cfg *faster.Config, dir string) (err error) {
	shards := cfg.Shards
	cfg.DeviceFactory = func(i int) (storage.Device, error) {
		name := "hybridlog.dat"
		if shards > 1 {
			name = fmt.Sprintf("hybridlog-shard%d.dat", i)
		}
		return storage.OpenFileDevice(filepath.Join(dir, name))
	}
	cfg.Checkpoints, err = storage.NewDirCheckpointStore(CheckpointDir(dir))
	return err
}

// OpenStore recovers cfg's store from its last verifiable commit, or opens
// it fresh when cfg's checkpoint store holds no commit at all. Any other
// recovery error — a shard-count mismatch, a corrupt artifact — is returned:
// starting fresh would shadow the existing data.
func OpenStore(cfg faster.Config) (*faster.Store, error) {
	t0 := time.Now()
	store, report, err := faster.RecoverWithReport(cfg)
	if errors.Is(err, faster.ErrNoCheckpoint) {
		log.Printf("no previous commit (%v); starting fresh", err)
		return faster.Open(cfg)
	}
	if err != nil {
		return nil, err
	}
	for _, sk := range report.Skipped {
		log.Printf("recovery skipped unverifiable commit %s: %v", sk.Token, sk.Reason)
	}
	mode := "full replay"
	if report.Instant {
		mode = "instant restore"
	}
	log.Printf("recovered store at version %d (commit %s): %s, time-to-serving %v",
		store.Version(), report.Token, mode, time.Since(t0))
	if rst := store.RestoreStatus(); rst != nil && rst.Restoring {
		log.Printf("instant restore warming %d cold buckets in the background (fasterctl restore-status tracks progress)",
			rst.ColdBuckets())
	}
	return store, nil
}

// startIngest runs the ingestion pipeline onto a serving store: the durable
// log (segments under InlogDir, or in memory without a Dir), the apply pump
// (watermarked per CPR commit, trimmed after) and the ingest server on ln.
// The returned func tears it down in dependency order.
func startIngest(store *faster.Store, cfg Config, ln net.Listener,
	wrap func(storage.Device) (storage.Device, error)) (func(), error) {

	policy, err := inlog.ParseFsyncPolicy(cfg.InlogFsync)
	if err != nil {
		return nil, err
	}
	var segments inlog.SegmentStore = inlog.NewMemSegmentStore()
	if cfg.Dir != "" {
		if segments, err = inlog.NewDirSegmentStore(InlogDir(cfg.Dir)); err != nil {
			return nil, err
		}
	}
	metrics, flight := store.Metrics(), store.Flight()
	lg, err := inlog.Open(inlog.Config{
		Segments:      segments,
		SegmentBytes:  cfg.InlogSegmentBytes,
		Fsync:         policy,
		BatchRecords:  cfg.InlogBatchRecords,
		BatchInterval: cfg.InlogBatchInterval,
		WrapDevice:    wrap,
		Metrics:       metrics,
		Flight:        flight,
	})
	if err != nil {
		return nil, err
	}
	pump, err := inlog.StartPump(inlog.PumpConfig{Log: lg, Store: store, Metrics: metrics, Flight: flight})
	if err != nil {
		lg.Close()
		return nil, fmt.Errorf("inlog pump: %w", err)
	}
	srv := inlog.NewIngestServer(lg, metrics, flight)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, inlog.ErrClosed) {
			log.Printf("ingest listener: %v", err)
		}
	}()
	log.Printf("ingesting on %s (fsync=%s, resume offset %d, log [%d, %d))",
		ln.Addr(), policy, pump.Applied(), lg.Start(), lg.Tail())
	return func() {
		srv.Close()
		pump.Close()
		if err := lg.Close(); err != nil {
			log.Printf("inlog close: %v", err)
		}
	}, nil
}
