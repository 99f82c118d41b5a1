package faster

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/epoch"
	"repro/internal/hashfn"
	"repro/internal/hlog"
	"repro/internal/obs"
	"repro/internal/storage"
)

// nowNanos is the wall clock used by the durability-lag bookkeeping.
func nowNanos() int64 { return time.Now().UnixNano() }

// Phase is a state of the CPR commit state machine (Fig. 9a).
type Phase uint8

// The five phases of a FASTER CPR commit.
const (
	Rest Phase = iota
	Prepare
	InProgress
	WaitPending
	WaitFlush
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Rest:
		return "rest"
	case Prepare:
		return "prepare"
	case InProgress:
		return "in-progress"
	case WaitPending:
		return "wait-pending"
	case WaitFlush:
		return "wait-flush"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// CommitKind selects how a checkpoint captures volatile records (App. D).
type CommitKind uint8

const (
	// FoldOver shifts the read-only offset to the tail: fully incremental,
	// but post-commit updates pay read-copy-update until the working set
	// migrates back to the mutable region.
	FoldOver CommitKind = iota
	// Snapshot writes the volatile log region to a separate artifact and
	// re-opens the region for in-place updates immediately after.
	Snapshot
)

// String implements fmt.Stringer.
func (k CommitKind) String() string {
	if k == Snapshot {
		return "snapshot"
	}
	return "fold-over"
}

// VersionTransfer selects how prepare→in-progress hand-off of records is
// coordinated (Sec. 6.5 / App. C).
type VersionTransfer uint8

const (
	// FineGrained uses bucket-level shared/exclusive latches (Alg. 4/5).
	FineGrained VersionTransfer = iota
	// CoarseGrained uses the safe-read-only offset as the eligibility
	// marker; conflicting operations go pending instead of latching.
	CoarseGrained
)

// String implements fmt.Stringer.
func (v VersionTransfer) String() string {
	if v == CoarseGrained {
		return "coarse"
	}
	return "fine"
}

// RMWOps defines read-modify-write semantics for a store (the paper's
// running per-key "sum" is AddUint64).
type RMWOps interface {
	// Initial returns the value for an RMW on a missing key.
	Initial(input []byte) []byte
	// Update computes the new value from the current one. It must not retain
	// cur or input. cur is a private copy of the current value: Update may
	// overwrite it and return it instead of allocating.
	Update(cur, input []byte) []byte
}

// AddUint64 implements RMWOps over little-endian 8-byte counters, matching
// the paper's RMW workload (increment by an input array entry).
type AddUint64 struct{}

// Initial implements RMWOps.
func (AddUint64) Initial(input []byte) []byte {
	out := make([]byte, 8)
	copy(out, input)
	return out
}

// Update implements RMWOps, summing into cur's storage.
func (AddUint64) Update(cur, input []byte) []byte {
	binary.LittleEndian.PutUint64(cur, binary.LittleEndian.Uint64(cur)+binary.LittleEndian.Uint64(input))
	return cur[:8]
}

// Config parameterizes a Store.
type Config struct {
	// Shards partitions the store into independent CPR domains — each with
	// its own hash index, HybridLog, epoch manager and checkpoint state
	// machine — routed by key-hash high bits. The default (1) is the original
	// unpartitioned store; commits on a multi-shard store are coordinated so
	// every session still receives a single cross-shard commit point.
	Shards int
	// IndexBuckets is the number of main hash buckets (power of two), split
	// across shards. The paper's default is #keys/2 with 7 entries per bucket.
	IndexBuckets int
	// PageBits, MemPages, MutableFraction configure the HybridLog. MemPages
	// is a store-wide budget: a multi-shard store divides it across shards.
	PageBits        uint
	MemPages        int
	MutableFraction float64
	// Device backs the HybridLog. Defaults to an in-memory device.
	// Only valid for a single-shard store; use DeviceFactory otherwise.
	Device storage.Device
	// DeviceFactory supplies one device per shard (required if a multi-shard
	// store should not default to per-shard in-memory devices). Mutually
	// exclusive with Device.
	DeviceFactory func(shard int) (storage.Device, error)
	// Checkpoints stores commit artifacts. Defaults to an in-memory store.
	// A multi-shard store namespaces each shard under "shard<i>/" and keeps
	// the cross-shard commit manifests at the top level.
	Checkpoints storage.CheckpointStore
	// RMW supplies read-modify-write semantics. Defaults to AddUint64.
	RMW RMWOps
	// Kind selects fold-over or snapshot commits.
	Kind CommitKind
	// Transfer selects fine- or coarse-grained version transfer.
	Transfer VersionTransfer
	// IOWorkers sizes the async I/O pool (per shard).
	IOWorkers int
	// VerifyReads makes cold-record reads fetch and verify the record's whole
	// log page against its recorded checksum (when known), healing read-path
	// bit flips by retrying instead of returning corrupt data.
	VerifyReads bool
	// Metrics receives the store's instrumentation (and the log's, epoch
	// manager's and I/O pool's). Defaults to a fresh enabled registry; pass
	// obs.NewNop() to disable collection. Multi-shard stores expose per-shard
	// infrastructure metrics under a "shard<i>_" prefix.
	Metrics *obs.Registry
	// Flight, when non-nil, records the causal commit-lifecycle event stream
	// (epoch bumps, phase transitions, artifact writes, log flushes, ...) for
	// every shard. Nil disables the flight recorder at zero hot-path cost.
	Flight *obs.FlightRecorder
	// ReqTrace, when non-nil, is the request tracer shared by the layers
	// serving this store (kvserver request hops, repl ship/announce spans).
	// The store itself only carries it — per-request spans are emitted by the
	// serving layer, which owns request boundaries. Nil disables request
	// tracing at one pointer test per call site.
	ReqTrace *obs.RequestTracer
	// Replica opens the store as a replication target: recovery replays
	// non-destructively (records shipped ahead of their commit are hidden in
	// memory instead of invalidated on the device, because the next installed
	// commit makes them live) and ApplyCommitted may advance the visible
	// state. See internal/repl and Store.Promote.
	Replica bool
	// InstantRestore makes Recover serve traffic before the log suffix is
	// replayed: the store comes up on the recovered commit's index with every
	// hash bucket cold, a background pass analyzes the suffix once
	// (page-granular, invalidating post-prefix records), and each bucket's
	// records are re-linked lazily on first touch or by a background sweeper.
	// Time-to-first-served-op becomes independent of the log-suffix size;
	// operations on cold buckets pay a bounded one-time warm-up, and Commit/
	// CompactLog return ErrRestoring until the store is warm (WaitRestored).
	// Ignored for replicas (their staged-suffix replay is not lazy-safe) and
	// by Open (nothing to restore). See DESIGN "Instant restore".
	InstantRestore bool
}

func (c *Config) fill() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("faster: Shards %d must be positive", c.Shards)
	}
	if c.Device != nil && c.DeviceFactory != nil {
		return fmt.Errorf("faster: Device and DeviceFactory are mutually exclusive")
	}
	if c.Shards > 1 && c.Device != nil {
		return fmt.Errorf("faster: Shards > 1 needs one device per shard; set DeviceFactory instead of Device")
	}
	if c.IndexBuckets == 0 {
		c.IndexBuckets = 1 << 16
	}
	if c.IndexBuckets&(c.IndexBuckets-1) != 0 {
		return fmt.Errorf("faster: IndexBuckets %d must be a power of two", c.IndexBuckets)
	}
	if c.Shards == 1 && c.Device == nil && c.DeviceFactory == nil {
		c.Device = storage.NewMemDevice()
	}
	if c.Checkpoints == nil {
		c.Checkpoints = storage.NewMemCheckpointStore()
	}
	if c.RMW == nil {
		c.RMW = AddUint64{}
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	return nil
}

// storeMetrics holds the store's hot-path metric handles, resolved once at
// Open so operations never touch the registry. All shards share one set: a
// partitioned store reports store-wide operation counts.
type storeMetrics struct {
	reads, upserts, rmws, deletes *obs.Counter
	pendings                      *obs.Counter // operations that went pending
	ioReads                       *obs.Counter // cold-record fetches issued
	commits                       *obs.Counter
	commitBytes                   *obs.Counter
	commitNs                      *obs.Histogram
	commitFailures                *obs.Counter // commits aborted by I/O failure
	recoverySkips                 *obs.Counter // commits skipped as unverifiable
	lagOps                        *obs.Histogram
	lagNs                         *obs.Histogram

	// Instant-restore progress (store-wide; per-shard state lives in gauges).
	restoreOndemandWarms *obs.Counter // buckets warmed by a blocked operation
	restoreSweepWarms    *obs.Counter // buckets warmed by the background sweeper
	restoreReplayed      *obs.Counter // suffix records re-linked into warm buckets
	restoreInvalidated   *obs.Counter // post-prefix records invalidated by analysis
	restoreBlockedOps    *obs.Counter // operations that waited on a cold bucket
}

func newStoreMetrics(reg *obs.Registry) storeMetrics {
	return storeMetrics{
		reads:          reg.Counter("faster_reads_total"),
		upserts:        reg.Counter("faster_upserts_total"),
		rmws:           reg.Counter("faster_rmws_total"),
		deletes:        reg.Counter("faster_deletes_total"),
		pendings:       reg.Counter("faster_pending_ops_total"),
		ioReads:        reg.Counter("faster_io_reads_total"),
		commits:        reg.Counter("faster_commits_total"),
		commitBytes:    reg.Counter("faster_commit_bytes_total"),
		commitNs:       reg.Histogram("faster_commit_ns"),
		commitFailures: reg.Counter("faster_commit_failures_total"),
		recoverySkips:  reg.Counter("faster_recovery_skipped_commits_total"),
		// Durability lag, observed per session at every completed commit:
		// how far the session's issued operations ran ahead of its committed
		// point t_i, in operations and in wall time since its commit point was
		// demarcated.
		lagOps: reg.Histogram("faster_session_lag_ops"),
		lagNs:  reg.Histogram("faster_session_lag_ns"),

		restoreOndemandWarms: reg.Counter("faster_restore_ondemand_warms_total"),
		restoreSweepWarms:    reg.Counter("faster_restore_sweep_warms_total"),
		restoreReplayed:      reg.Counter("faster_restore_replayed_records_total"),
		restoreInvalidated:   reg.Counter("faster_restore_invalidated_records_total"),
		restoreBlockedOps:    reg.Counter("faster_restore_blocked_ops_total"),
	}
}

// Store is a FASTER instance with CPR durability, partitioned into one or
// more shards. All operations happen through Sessions (Sec. 5.2), which
// route by key hash; Commit triggers an asynchronous CPR checkpoint across
// every shard; Recover rebuilds a store from its latest commit. With
// Shards == 1 the store behaves exactly like the original unpartitioned
// implementation, including its checkpoint format.
type Store struct {
	cfg        Config
	shards     []*shard
	shardShift uint // 64 - log2(Shards) when Shards is a power of two

	// mu guards the session registry and serializes session registration
	// against commit admission (lock order: mu, then ckptMu, then per-shard
	// locks in shard order).
	mu               sync.Mutex
	sessions         map[string]*Session
	recoveredSerials map[string]uint64

	ckptMu    sync.Mutex
	multi     *multiCommit // non-nil while a cross-shard commit is active
	results   map[string]CommitResult
	commitSeq atomic.Uint64 // token counter, shared with the shards

	// hookMu guards commitHooks (see OnCommit; fired after every completed
	// commit, used by the replication shipper) and artifactHooks (see
	// OnCommitArtifact; produce extra artifacts persisted with each commit).
	hookMu        sync.Mutex
	commitHooks   []func(CommitResult)
	artifactHooks []func(CommitResult) (string, []byte, error)

	metrics storeMetrics

	// report describes how the store was recovered (nil when opened fresh).
	report *RecoveryReport
}

// RecoveryReport returns the report from the Recover call that produced this
// store: the commit recovered and any newer commits skipped as unverifiable.
// It is nil for a store created with Open.
func (s *Store) RecoveryReport() *RecoveryReport { return s.report }

func packState(p Phase, v uint32) uint64   { return uint64(p)<<32 | uint64(v) }
func unpackState(s uint64) (Phase, uint32) { return Phase(s >> 32), uint32(s) }

func newStore(cfg Config) *Store {
	s := &Store{
		cfg:              cfg,
		sessions:         make(map[string]*Session),
		recoveredSerials: make(map[string]uint64),
		results:          make(map[string]CommitResult),
		metrics:          newStoreMetrics(cfg.Metrics),
	}
	if n := cfg.Shards; n > 1 && n&(n-1) == 0 {
		s.shardShift = 64 - uint(bits.Len(uint(n))-1)
	}
	return s
}

// shardConfig derives shard i's private configuration: its own device, a
// namespaced view of the checkpoint store, a prefixed metrics view, and a
// 1/N slice of the index and log-memory budgets. With Shards == 1 the
// shard's configuration is the store's, untouched.
func (s *Store) shardConfig(i int) (Config, error) {
	sc := s.cfg
	sc.DeviceFactory = nil
	if s.cfg.DeviceFactory != nil {
		d, err := s.cfg.DeviceFactory(i)
		if err != nil {
			return Config{}, fmt.Errorf("faster: shard %d device: %w", i, err)
		}
		sc.Device = d
	}
	if s.cfg.Shards == 1 {
		return sc, nil
	}
	if sc.Device == nil {
		sc.Device = storage.NewMemDevice()
	}
	sc.IndexBuckets = shardBuckets(s.cfg.IndexBuckets, s.cfg.Shards)
	if s.cfg.MemPages > 0 {
		sc.MemPages = s.cfg.MemPages / s.cfg.Shards
		if sc.MemPages < hlog.MinMemPages {
			sc.MemPages = hlog.MinMemPages
		}
	}
	sc.Checkpoints = storage.NewPrefixCheckpointStore(s.cfg.Checkpoints, fmt.Sprintf("shard%d/", i))
	sc.Metrics = s.cfg.Metrics.WithPrefix(fmt.Sprintf("shard%d_", i))
	return sc, nil
}

// shardBuckets splits a power-of-two bucket budget across n shards, keeping
// every shard's index a power of two with a sane floor.
func shardBuckets(total, n int) int {
	per := total / n
	if per < 64 {
		per = 64
	}
	if per&(per-1) != 0 {
		per = 1 << bits.Len(uint(per)) // non-power-of-two shard count: round up
	}
	return per
}

// Open creates a Store ready for use at version 1.
func Open(cfg Config) (*Store, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := newStore(cfg)
	for i := 0; i < cfg.Shards; i++ {
		sc, err := s.shardConfig(i)
		if err == nil {
			var sh *shard
			sh, err = openShard(sc, i, s.metrics, &s.commitSeq)
			if err == nil {
				s.shards = append(s.shards, sh)
				continue
			}
		}
		s.Close()
		return nil, err
	}
	for _, sh := range s.shards {
		sh.noteCommitted = s.noteCommitted
	}
	s.registerStoreGauges()
	s.registerLagGauges()
	return s, nil
}

// registerStoreGauges exposes store-wide aggregates. With one shard the
// shard itself registered the unprefixed gauges, preserving the original
// metric set exactly.
func (s *Store) registerStoreGauges() {
	if s.cfg.Shards == 1 {
		return
	}
	reg := s.cfg.Metrics
	reg.GaugeFunc("faster_shards", func() int64 { return int64(len(s.shards)) })
	reg.GaugeFunc("faster_version", func() int64 { return int64(s.Version()) })
	reg.GaugeFunc("faster_phase", func() int64 { return int64(s.Phase()) })
	reg.GaugeFunc("faster_sessions", func() int64 { return int64(s.SessionCount()) })
}

// Close shuts down background I/O. Outstanding sessions become invalid. A
// commit writing its artifacts finishes first; one that would start writing
// later fails with storage.ErrClosed, so nothing is written after Close
// returns.
func (s *Store) Close() {
	for _, sh := range s.shards {
		sh.close()
	}
}

// shardOf routes a key hash to its shard. High bits are used so the
// per-shard index distribution stays uniform (buckets select on low bits).
func (s *Store) shardOf(hash uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	if s.shardShift != 0 {
		return int(hash >> s.shardShift)
	}
	return int((hash >> 32) % uint64(len(s.shards)))
}

// Phase returns the store-wide CPR phase: the most advanced phase across
// shards. While a cross-shard commit is finalizing its manifest (all shards
// back at rest, manifest not yet durable) it reports wait-flush, so polling
// Phase() == Rest observes completed commits only.
func (s *Store) Phase() Phase {
	p := s.shards[0].Phase()
	for _, sh := range s.shards[1:] {
		if sp := sh.Phase(); sp > p {
			p = sp
		}
	}
	if p == Rest && len(s.shards) > 1 {
		s.ckptMu.Lock()
		active := s.multi != nil
		s.ckptMu.Unlock()
		if active {
			return WaitFlush
		}
	}
	return p
}

// Version returns the current CPR version (the minimum across shards while a
// commit is completing).
func (s *Store) Version() uint32 {
	v := s.shards[0].Version()
	for _, sh := range s.shards[1:] {
		if sv := sh.Version(); sv < v {
			v = sv
		}
	}
	return v
}

// NumShards reports the store's shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// Log exposes shard 0's HybridLog (diagnostics and experiments; the only
// log of a single-shard store). See ShardLog for the others.
func (s *Store) Log() *hlog.Log { return s.shards[0].log }

// ShardLog exposes shard i's HybridLog.
func (s *Store) ShardLog(i int) *hlog.Log { return s.shards[i].log }

// ShardPhase returns shard i's CPR phase.
func (s *Store) ShardPhase(i int) Phase { return s.shards[i].Phase() }

// ShardVersion returns shard i's CPR version.
func (s *Store) ShardVersion(i int) uint32 { return s.shards[i].Version() }

// LogBytes reports the total live log volume ([Begin, Tail)) across shards.
func (s *Store) LogBytes() int64 {
	var n int64
	for _, sh := range s.shards {
		n += int64(sh.log.Tail() - sh.log.Begin())
	}
	return n
}

// Epochs exposes shard 0's epoch manager (shared with helper goroutines of
// single-shard deployments).
func (s *Store) Epochs() *epoch.Manager { return s.shards[0].epochs }

// Metrics returns the store's metrics registry (never nil after Open, though
// it may be the nop registry).
func (s *Store) Metrics() *obs.Registry { return s.cfg.Metrics }

// Flight returns the store's flight recorder (nil when not configured).
func (s *Store) Flight() *obs.FlightRecorder { return s.cfg.Flight }

// RequestTracer returns the store's request tracer (nil when not configured).
func (s *Store) RequestTracer() *obs.RequestTracer { return s.cfg.ReqTrace }

// ShardOfKey reports which shard serves key — the same route its operations
// take. Surfaced so serving layers can annotate dispatch spans without
// re-deriving the hash split.
func (s *Store) ShardOfKey(key []byte) int { return s.shardOf(hashfn.Hash64(key)) }

// DumpFlight snapshots the flight recorder and writes it as a CRC-framed
// artifact named "flight-<reason>" in the checkpoint store, overwriting any
// earlier dump with the same reason. Call it from a panic handler or a crash
// point; decode with `fasterctl flight -dump` (or obs.DecodeFlightDump after
// storage.ReadArtifactChecked). A nil recorder is a no-op.
func (s *Store) DumpFlight(reason string) error {
	if s.cfg.Flight == nil {
		return nil
	}
	return storage.WriteArtifactChecked(s.cfg.Checkpoints, "flight-"+reason, s.cfg.Flight.EncodeDump())
}

// SessionLag is one live session's durability lag: how far its issued
// operations run ahead of its committed prefix t_i.
type SessionLag struct {
	ID string `json:"id"`
	// IssuedSerial is the session's latest issued operation serial;
	// CommittedSerial is its durable commit point t_i.
	IssuedSerial    uint64 `json:"issued_serial"`
	CommittedSerial uint64 `json:"committed_serial"`
	// LagOps = IssuedSerial - CommittedSerial.
	LagOps uint64 `json:"lag_ops"`
	// LagNanos is the wall-clock age of the uncommitted suffix: time since
	// the oldest issued-but-uncommitted state changed (0 when fully durable).
	LagNanos int64 `json:"lag_ns"`
}

// SessionLags reports the durability lag of every live session, sorted by
// session ID.
func (s *Store) SessionLags() []SessionLag {
	now := nowNanos()
	s.mu.Lock()
	out := make([]SessionLag, 0, len(s.sessions))
	for id, sess := range s.sessions {
		out = append(out, sess.lag(id, now))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// maxSessionLag scans live sessions for the largest lag (ops and ns) — the
// faster_session_lag_*_max gauges.
func (s *Store) maxSessionLag() (ops uint64, ns int64) {
	now := nowNanos()
	s.mu.Lock()
	for id, sess := range s.sessions {
		l := sess.lag(id, now)
		if l.LagOps > ops {
			ops = l.LagOps
		}
		if l.LagNanos > ns {
			ns = l.LagNanos
		}
	}
	s.mu.Unlock()
	return ops, ns
}

// noteCommitted records a completed commit's session points in the
// durability-lag metrics and advances each session's committed watermark.
// Invoked on the commit-completion path of both the coordinated (multi-shard)
// and uncoordinated (single-shard) protocols.
func (s *Store) noteCommitted(res CommitResult) {
	now := nowNanos()
	token := res.Token // one shared cell for every session's covering token
	s.mu.Lock()
	for id, pt := range res.Serials {
		sess, ok := s.sessions[id]
		if !ok {
			continue
		}
		s.metrics.lagOps.ObserveValue(sess.serial.Load() - pt)
		if d := sess.demarcAtNanos.Load(); d != 0 && now > d {
			s.metrics.lagNs.ObserveValue(uint64(now - d))
		}
		sess.committedSerial.Store(pt)
		sess.committedAtNanos.Store(now)
		sess.committedToken.Store(&token)
	}
	s.mu.Unlock()
}

// registerLagGauges exposes the worst-case live durability lag. Registered at
// store level for every shard count (the lag is a session property, not a
// shard property).
func (s *Store) registerLagGauges() {
	reg := s.cfg.Metrics
	reg.GaugeFunc("faster_session_lag_ops_max", func() int64 {
		ops, _ := s.maxSessionLag()
		return int64(ops)
	})
	reg.GaugeFunc("faster_session_lag_ns_max", func() int64 {
		_, ns := s.maxSessionLag()
		return ns
	})
}

// OnCommitArtifact registers fn as a commit attachment: at every commit,
// after the checkpoint (and, on a partitioned store, the cross-shard
// manifest) is durable but before the commit is announced as complete, fn is
// invoked with the commit's result and returns an artifact name and payload
// to persist alongside the commit's own artifacts — inside the checksum
// envelope, with the usual retries. An empty name skips the write. An error
// from fn or from the write fails the commit, so a completed commit always
// carries its attachments (the ingestion log's inlog-<token> watermark
// depends on this ordering). fn runs on the checkpoint goroutine and must
// not block on session progress.
func (s *Store) OnCommitArtifact(fn func(CommitResult) (name string, payload []byte, err error)) {
	s.hookMu.Lock()
	s.artifactHooks = append(s.artifactHooks, fn)
	s.hookMu.Unlock()
	if len(s.shards) == 1 {
		s.shards[0].commitAttach = s.writeCommitAttachments
	}
}

// writeCommitAttachments runs the registered attachment hooks for a commit
// that has just become durable, persisting each returned artifact in the
// store's top-level checkpoint namespace.
func (s *Store) writeCommitAttachments(res CommitResult) error {
	s.hookMu.Lock()
	hooks := s.artifactHooks
	s.hookMu.Unlock()
	for _, fn := range hooks {
		name, payload, err := fn(res)
		if err != nil {
			return fmt.Errorf("faster: commit %s attachment: %w", res.Token, err)
		}
		if name == "" {
			continue
		}
		if err := writeArtifactFlight(s.cfg.Checkpoints, name, payload, s.cfg.Flight, -1, res.Version); err != nil {
			return fmt.Errorf("faster: commit %s attachment %q: %w", res.Token, name, err)
		}
	}
	return nil
}

// SessionCount reports the number of live sessions.
func (s *Store) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// waitForRest spins until every shard is at rest, driving epoch progress so
// in-flight commits can advance even when all sessions are idle.
func (s *Store) waitForRest() {
	for _, sh := range s.shards {
		sh.waitForRest()
	}
}

// recVersion returns the 13-bit on-record version for store version v.
func recVersion(v uint32) uint16 { return uint16(v) & hlog.MaxVersion }

// isFutureVersion reports whether a record version corresponds to v+1
// relative to commit version v (wraparound-safe: during a checkpoint only
// versions v and earlier, plus v+1, can appear).
func isFutureVersion(recVer uint16, v uint32) bool {
	return recVer == recVersion(v+1)
}
