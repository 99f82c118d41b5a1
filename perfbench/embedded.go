package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
	"repro/internal/storage"
)

// embSpec defines an in-process workload: two closed-loop sessions on one
// faster.Store, a log-only fold-over commit every commitEvery, and a final
// commit that includes the index.
type embSpec struct {
	keys        uint64
	chooser     keyChooser
	mix         mix
	pageBits    uint
	memPages    int
	commitEvery time.Duration
	// shape checks that the run still stresses the layer the workload is
	// for; a non-nil error invalidates the run.
	shape func(pendingRatio float64, deviceReads int64) error
}

const (
	embSessions   = 2
	sliceWidth    = time.Second     // embedded slice width, see series
	ringLen       = 1 << 21         // pre-generated ops per session
	embEpisode    = 5 * time.Second // longest embedded episode, see episodes
	recoverReps   = 3               // recoveries per episode
	sampleKeys    = 2000            // keys whose values recovery must reproduce
	missReads     = 200000          // absent-key reads timed for faster.read_miss_ns
	flightPerRing = 1 << 15
)

func embeddedSpec(name string, keys uint64) (embSpec, error) {
	switch name {
	case "embedded-zipf":
		return embSpec{
			keys: keys, chooser: newZipf(keys, 0.99), mix: mix{read: 50, upsert: 25, rmw: 25},
			// 1 MiB pages and a budget far above what a run appends, so every
			// record stays in memory.
			pageBits: 20, memPages: 4096, commitEvery: time.Second,
			shape: func(pr float64, devReads int64) error {
				// No op may reach the device. A few ops per commit still go
				// pending: CPR parks an op that meets a record of the next
				// version until its session crosses the version shift.
				if devReads != 0 {
					return fmt.Errorf("embedded-zipf read the device %d times; every record must stay in memory", devReads)
				}
				if pr > 1e-3 {
					return fmt.Errorf("embedded-zipf pending ratio %.6f, want at most 0.001 (version-shift hand-offs only)", pr)
				}
				return nil
			},
		}, nil
	case "embedded-cold":
		// 16 pages of 256 KiB hold about 1/8 of the loaded records.
		return embSpec{
			keys: keys, chooser: uniform{n: keys}, mix: mix{read: 90, upsert: 10},
			pageBits: 18, memPages: 16, commitEvery: time.Second,
			shape: func(pr float64, _ int64) error {
				if pr < 0.5 {
					return fmt.Errorf("embedded-cold pending ratio %.3f, want >= 0.5", pr)
				}
				return nil
			},
		}, nil
	}
	return embSpec{}, fmt.Errorf("unknown embedded workload %q", name)
}

// embStore is one opened and loaded store with its sessions.
type embStore struct {
	spec    embSpec
	st      *faster.Store
	dev     *countingDevice
	ckpts   *countingCheckpoints
	workers []*embWorker
}

func (s *embStore) config(dev storage.Device, ck storage.CheckpointStore, flight *obs.FlightRecorder) faster.Config {
	return faster.Config{
		IndexBuckets: int(s.spec.keys / 2),
		PageBits:     s.spec.pageBits,
		MemPages:     s.spec.memPages,
		Device:       dev,
		Checkpoints:  ck,
		Flight:       flight,
	}
}

// embWorker drives one session from one goroutine.
type embWorker struct {
	sess   *faster.Session
	id     string
	ring   []uint64
	pos    int
	issued uint64 // every op issued on the session, load included
	traced bool
	chk    *checks
	val    [8]byte // copy of the latest read value
	cb     func([]byte, faster.Status)
	cbAt   time.Time

	// Counters and timings of the current window.
	ops, writes, pending uint64
	lat, batch           *series // per op; per run of 32 consecutive ops
	readH, upsertH       hist
	rmwH, pendH, compH   hist
	busy                 time.Duration
}

func newEmbWorker(sess *faster.Session, ring []uint64, chk *checks) *embWorker {
	w := &embWorker{sess: sess, id: sess.ID(), ring: ring, chk: chk}
	w.cb = w.onRead
	return w
}

func (w *embWorker) onRead(val []byte, st faster.Status) {
	w.cbAt = time.Now()
	if st != faster.Ok || len(val) != 8 {
		w.chk.failf("pending read completed with %v and a %d-byte value", st, len(val))
		return
	}
	copy(w.val[:], val)
}

// waitPending completes this session's parked ops. Between passes it
// refreshes the session, since a parked op may wait on a commit that needs
// this session's epoch to advance, and yields so the I/O workers get a
// processor.
func (w *embWorker) waitPending() {
	for first := true; ; first = false {
		if !first {
			w.sess.Refresh()
			runtime.Gosched()
		}
		var t0 time.Time
		if w.traced {
			t0 = time.Now()
		}
		w.sess.CompletePending(false)
		if w.traced {
			d := time.Since(t0)
			w.compH.addDur(d)
			w.busy += d
		}
		if w.sess.PendingCount() == 0 {
			return
		}
	}
}

func (w *embWorker) resetWindow(traced bool, start time.Time, slices int) {
	w.traced = traced
	w.ops, w.writes, w.pending, w.busy = 0, 0, 0, 0
	w.lat, w.batch = newSeries(start, sliceWidth, slices), newSeries(start, sliceWidth, slices)
	w.readH, w.upsertH, w.rmwH, w.pendH, w.compH = hist{}, hist{}, hist{}, hist{}, hist{}
}

// window issues ops from the ring until stop is set. Each op waits for its
// own completion (closed loop).
func (w *embWorker) window(stop *atomic.Bool) {
	var kb, vb [8]byte
	one := [8]byte{1}
	mask := len(w.ring) - 1
	mark := w.lat.start
	for !stop.Load() {
		o := w.ring[w.pos&mask]
		w.pos++
		kind := o >> 56
		binary.LittleEndian.PutUint64(kb[:], o&keyMask)
		var st faster.Status
		t0 := time.Now()
		switch kind {
		case opRead:
			var v []byte
			v, st = w.sess.Read(kb[:], w.cb)
			if st == faster.Ok {
				if len(v) != 8 {
					w.chk.failf("read of loaded key %d returned %d bytes", o&keyMask, len(v))
				}
				copy(w.val[:], v)
			}
		case opUpsert:
			binary.LittleEndian.PutUint64(vb[:], uint64(w.pos))
			st = w.sess.Upsert(kb[:], vb[:])
		default:
			st = w.sess.RMW(kb[:], one[:])
		}
		tRet := time.Now()
		w.issued++
		w.ops++
		if kind != opRead {
			w.writes++
		}
		end := tRet
		switch st {
		case faster.Ok:
		case faster.Pending:
			w.pending++
			w.cbAt = time.Time{}
			w.waitPending()
			end = time.Now()
			if kind == opRead {
				if w.cbAt.IsZero() {
					w.chk.failf("pending read of key %d never called back", o&keyMask)
				} else {
					end = w.cbAt
				}
			}
			if w.traced {
				w.pendH.addDur(end.Sub(t0))
			}
		default:
			w.chk.failf("op kind %d on loaded key %d returned %v", kind, o&keyMask, st)
		}
		w.lat.add(end, end.Sub(t0))
		if w.traced {
			d := tRet.Sub(t0)
			w.busy += d
			switch kind {
			case opRead:
				w.readH.addDur(d)
			case opUpsert:
				w.upsertH.addDur(d)
			default:
				w.rmwH.addDur(d)
			}
		}
		if w.ops%32 == 0 {
			w.batch.add(end, end.Sub(mark))
			mark = end
		}
	}
	w.waitPending()
}

// idle keeps the session refreshing (so commits can complete) until done.
func (w *embWorker) idle(done *atomic.Bool) {
	for !done.Load() {
		w.sess.Refresh()
		time.Sleep(20 * time.Microsecond)
	}
}

// loadValue is the value the load writes for key k.
func loadValue(seed, k uint64) uint64 { return scramble(seed ^ k) }

// setupStore opens a store, loads every key from both sessions and takes an
// initial index commit, so the store is ready and recoverable.
// Session i starts its ops at rings[i][pos[i]].
func setupStore(spec embSpec, rings [][]uint64, pos []int, seed uint64, flight *obs.FlightRecorder, chk *checks) (*embStore, time.Duration, error) {
	t0 := time.Now()
	s := &embStore{
		spec:  spec,
		dev:   &countingDevice{MemDevice: storage.NewMemDevice()},
		ckpts: &countingCheckpoints{MemCheckpointStore: storage.NewMemCheckpointStore()},
	}
	st, err := faster.Open(s.config(s.dev, s.ckpts, flight))
	if err != nil {
		return nil, 0, err
	}
	s.st = st
	for i := 0; i < embSessions; i++ {
		w := newEmbWorker(st.StartSession(), rings[i], chk)
		w.pos = pos[i]
		s.workers = append(s.workers, w)
	}
	var loaded, exited sync.WaitGroup
	var done atomic.Bool
	for i, w := range s.workers {
		loaded.Add(1)
		exited.Add(1)
		go func(i int, w *embWorker) {
			defer exited.Done()
			var kb, vb [8]byte
			for k := uint64(i); k < spec.keys; k += embSessions {
				binary.LittleEndian.PutUint64(kb[:], k)
				binary.LittleEndian.PutUint64(vb[:], loadValue(seed, k))
				st := w.sess.Upsert(kb[:], vb[:])
				w.issued++
				if st == faster.Pending {
					w.waitPending()
				} else if st != faster.Ok {
					chk.failf("load upsert of key %d returned %v", k, st)
				}
			}
			loaded.Done()
			w.idle(&done)
		}(i, w)
	}
	loaded.Wait()
	res, err := commitAndWait(st, true)
	done.Store(true)
	exited.Wait()
	if err != nil {
		return s, 0, err
	}
	if err := checkSerials(res, s.workers, 0); err != nil {
		chk.failf("initial commit: %v", err)
	}
	return s, time.Since(t0), nil
}

func commitAndWait(st *faster.Store, withIndex bool) (faster.CommitResult, error) {
	tok, err := st.Commit(faster.CommitOptions{WithIndex: withIndex})
	if err != nil {
		return faster.CommitResult{}, err
	}
	res := st.WaitForCommit(tok)
	return res, res.Err
}

// checkSerials verifies that every session's CPR point in res equals the
// number of ops the benchmark issued on it (plus skew, which tests use to
// prove a wrong expectation fails the run).
func checkSerials(res faster.CommitResult, ws []*embWorker, skew uint64) error {
	for _, w := range ws {
		got, ok := res.Serials[w.id]
		if !ok {
			return fmt.Errorf("commit %s has no CPR point for session %s", res.Token, w.id)
		}
		if want := w.issued + skew; got != want {
			return fmt.Errorf("commit %s: session %s CPR point %d, want %d", res.Token, w.id, got, want)
		}
	}
	return nil
}

// commitLog records the commits driven during one window.
type commitLog struct {
	durs   []float64 // Commit() -> WaitForCommit return, ms
	bytes  []float64
	tokens map[string]bool
}

// commitLoop drives a log-only commit every `every` until stop is set.
func commitLoop(st *faster.Store, every time.Duration, stop *atomic.Bool, cl *commitLog, chk *checks) {
	next := time.Now().Add(every)
	for {
		for d := time.Until(next); d > 0 && !stop.Load(); d = time.Until(next) {
			time.Sleep(min(d, 5*time.Millisecond))
		}
		if stop.Load() {
			return
		}
		t0 := time.Now()
		res, err := commitAndWait(st, false)
		if err != nil {
			chk.failf("commit: %v", err)
			return
		}
		cl.durs = append(cl.durs, float64(time.Since(t0))/1e6)
		cl.bytes = append(cl.bytes, float64(res.Bytes))
		cl.tokens[res.Token] = true
		next = next.Add(every)
		if now := time.Now(); next.Before(now) {
			next = now
		}
	}
}

// windowResult is what one measured window of an embedded workload yields.
type windowResult struct {
	elapsed      time.Duration
	ops, writes  uint64
	pending      uint64
	lat, batch   []hist // complete slices, merged over sessions
	commits      commitLog
	devWrites    int64 // bytes
	ckptWrites   int64 // bytes
	devReadCalls int64
	logBytes     int64
	mem0, mem1   runtime.MemStats
	cpu          float64
	peakMB       float64 // VmHWM when the final commit is durable
	workers      []*embWorker
}

// runWindow measures the workload for d, then stops the sessions, drains
// them and takes the final index commit, checking every CPR point.
func runWindow(s *embStore, d time.Duration, traced bool, skew uint64, chk *checks) (*windowResult, error) {
	r := &windowResult{workers: s.workers, commits: commitLog{tokens: map[string]bool{}}}
	start, slices := time.Now(), int(d/sliceWidth)
	for _, w := range s.workers {
		w.resetWindow(traced, start, slices)
	}
	devRC0, devW0, ck0 := s.dev.reads.calls.Load(), s.dev.writes.bytes.Load(), s.ckpts.writes.bytes.Load()
	log0 := s.st.LogBytes()
	if traced {
		runtime.ReadMemStats(&r.mem0)
	}
	cpu0, _ := procCPUSeconds(selfPID)

	var stop, done atomic.Bool
	var drained, exited, committer sync.WaitGroup
	for _, w := range s.workers {
		drained.Add(1)
		exited.Add(1)
		go func(w *embWorker) {
			defer exited.Done()
			w.window(&stop)
			drained.Done()
			w.idle(&done)
		}(w)
	}
	committer.Add(1)
	go func() {
		defer committer.Done()
		commitLoop(s.st, s.spec.commitEvery, &stop, &r.commits, chk)
	}()
	time.Sleep(d)
	stop.Store(true)
	drained.Wait()
	end := time.Now()
	r.elapsed = end.Sub(start)
	committer.Wait()
	final, err := commitAndWait(s.st, true)
	done.Store(true)
	exited.Wait()
	if err != nil {
		return nil, fmt.Errorf("final commit: %w", err)
	}
	if r.peakMB, err = procPeakRSSMB(selfPID); err != nil {
		return nil, err
	}
	if err := checkSerials(final, s.workers, skew); err != nil {
		chk.failf("final commit: %v", err)
	}
	if traced {
		runtime.ReadMemStats(&r.mem1)
	}
	cpu1, _ := procCPUSeconds(selfPID)
	r.cpu = cpu1 - cpu0
	lat, batch := newSeries(start, sliceWidth, slices), newSeries(start, sliceWidth, slices)
	for _, w := range s.workers {
		r.ops += w.ops
		r.writes += w.writes
		r.pending += w.pending
		lat.merge(w.lat)
		batch.merge(w.batch)
	}
	r.lat, r.batch = lat.full(end), batch.full(end)
	r.devReadCalls = s.dev.reads.calls.Load() - devRC0
	r.devWrites = s.dev.writes.bytes.Load() - devW0
	r.ckptWrites = s.ckpts.writes.bytes.Load() - ck0
	r.logBytes = s.st.LogBytes() - log0
	return r, nil
}

// readKeys reads keys through sess, completing pending reads, and returns
// each value (nil where the read failed).
func readKeys(sess *faster.Session, keys []uint64) [][]byte {
	out := make([][]byte, len(keys))
	for i, k := range keys {
		var kb [8]byte
		binary.LittleEndian.PutUint64(kb[:], k)
		i := i
		v, st := sess.Read(kb[:], func(val []byte, st faster.Status) {
			if st == faster.Ok {
				out[i] = append([]byte(nil), val...)
			}
		})
		switch st {
		case faster.Ok:
			out[i] = append([]byte(nil), v...)
		case faster.Pending:
			sess.CompletePending(true)
		}
	}
	return out
}

// recoverClones recovers from a clone of the store's checkpoint and device
// image reps times, checking the recovered CPR points and sampled values on
// the first, and returns each Recover call's duration in seconds.
func recoverClones(s *embStore, sample []uint64, want [][]byte, skew uint64, chk *checks) ([]float64, error) {
	var secs []float64
	for rep := 0; rep < recoverReps; rep++ {
		// Clone the checkpoints before the device, so no cloned metadata
		// names log data the cloned device lacks.
		ck := s.ckpts.MemCheckpointStore.Clone()
		dev := s.dev.MemDevice.Clone()
		runtime.GC()
		t0 := time.Now()
		rs, err := faster.Recover(s.config(dev, ck, nil))
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if rep == 0 {
			var sess *faster.Session
			for _, w := range s.workers {
				ss, serial := rs.ContinueSession(w.id)
				if wantSerial := w.issued + skew; serial != wantSerial {
					chk.failf("recovered CPR point of session %s is %d, want %d", w.id, serial, wantSerial)
				}
				sess = ss
			}
			got := readKeys(sess, sample)
			for i := range sample {
				if string(got[i]) != string(want[i]) {
					chk.failf("recovered value of key %d is %x, want %x", sample[i], got[i], want[i])
					break
				}
			}
		}
		rs.Close()
	}
	return secs, nil
}

// episodes splits a run of length total into n equal episodes of at most
// maxLen each. Every episode sets up a fresh store or server, so one run
// samples set-up, commit and recovery several times and no episode runs long
// enough to leave the regime its workload is defined for.
func episodes(total, maxLen time.Duration) (int, time.Duration) {
	n := int((total + maxLen - 1) / maxLen)
	if n < 1 {
		n = 1
	}
	return n, total / time.Duration(n)
}

// runEmbedded runs an embedded workload and returns its metrics.
func runEmbedded(o *options, chk *checks) (map[string]metric, uint64, error) {
	spec, err := embeddedSpec(o.workload, o.keys)
	if err != nil {
		return nil, 0, err
	}
	rings := make([][]uint64, embSessions)
	for i := range rings {
		rings[i] = opRing(ringLen, spec.chooser, spec.mix, newRNG(o.inputSeed, uint64(i)+1))
	}
	if o.trace {
		return traceEmbedded(o, spec, rings, chk)
	}
	sample := make([]uint64, sampleKeys)
	sr := newRNG(o.inputSeed, 0x5a17)
	for i := range sample {
		sample[i] = sr.intn(spec.keys)
	}

	var (
		setups, recs, peaks, commits []float64
		lat, batch                   []hist
		ops, writes, pending         uint64
		devReadCalls, written        int64
		pos                          = make([]int, embSessions)
	)
	n, epLen := episodes(o.duration(), embEpisode)
	for ep := 0; ep < n; ep++ {
		runtime.GC()
		debug.FreeOSMemory()
		if err := resetPeakRSS(selfPID); err != nil {
			return nil, 0, err
		}
		s, d, err := setupStore(spec, rings, pos, o.inputSeed, nil, chk)
		if err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		r, err := runWindow(s, epLen, false, o.skew, chk)
		if err != nil {
			s.st.Close()
			return nil, 0, err
		}
		for i, w := range s.workers {
			pos[i] = w.pos
		}
		peaks = append(peaks, r.peakMB)
		commits = append(commits, r.commits.durs...)
		lat, batch = append(lat, r.lat...), append(batch, r.batch...)
		ops, writes, pending = ops+r.ops, writes+r.writes, pending+r.pending
		devReadCalls += r.devReadCalls
		written += r.devWrites + r.ckptWrites
		logWindow(fmt.Sprintf("%s episode %d", o.workload, ep), r.lat, r.commits.durs)
		logWindow(fmt.Sprintf("%s episode %d 32-op runs", o.workload, ep), r.batch, nil)

		// The store is quiescent after the final commit: its values are the
		// committed ones recovery must reproduce.
		want := readKeys(s.workers[0].sess, sample)
		for i, v := range want {
			if len(v) != 8 {
				chk.failf("read of loaded key %d after the final commit returned %d bytes", sample[i], len(v))
				break
			}
		}
		secs, err := recoverClones(s, sample, want, o.skew, chk)
		s.st.Close()
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, secs...)
	}
	if want := max(int(o.duration()/spec.commitEvery)/2, 1); len(commits) < want {
		chk.invalidf("%d commits completed in the run, want at least %d", len(commits), want)
	}
	if err := spec.shape(ratio(float64(pending), float64(ops)), devReadCalls); err != nil {
		chk.invalidf("%v", err)
	}
	fmt.Fprintf(stderr, "%s: %d ops in %d episodes of %v (%d pending), %d commits, %d latency samples\n",
		o.workload, ops, n, epLen, pending, len(commits), ops)

	m := map[string]metric{
		"throughput_ops": {sliceRate(lat, sliceWidth, 1), "ops/s"},
		"latency_p50_us": {sliceQuantile(lat, 0.50) / 1e3, "us"},
		"latency_p99_us": {sliceQuantile(lat, 0.99) / 1e3, "us"},
		"batch_p50_us":   {sliceQuantile(batch, 0.50) / 1e3, "us"},
		"batch_p99_us":   {sliceQuantile(batch, 0.99) / 1e3, "us"},
		"commit_p50_ms":  {median(commits), "ms"},
		"write_amp":      {ratio(float64(written), float64(writes)*16), "ratio"},
		"recover_s":      {median(recs), "s"},
		"mem_peak_mb":    {median(peaks), "MB"},
		"setup_s":        {median(setups), "s"},
	}
	return m, ops + uint64(len(commits)+n), nil
}
