package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvserver"
	"repro/internal/obs"
)

const (
	tcpBatch       = 32                     // ops per BATCH frame on connection A
	tcpCommitEvery = 500 * time.Millisecond // connection B's COMMIT cadence
	tcpRingLen     = 1 << 20
	tcpSlice       = 500 * time.Millisecond  // slice width, see series
	tcpEpisode     = 2500 * time.Millisecond // longest episode, see episodes
	tcpRestarts    = 15                      // restarts timed for recover_s
)

// tcpServer is a cprserver child process.
type tcpServer struct {
	ch        *child
	addr      string
	debugAddr string
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer runs the cprserver built from this checkout: in-memory,
// default flags except -autocommit 0 and a free port (plus a debug listener
// in traced runs, for the latency histograms' buckets). An empty addr picks
// a free port, and a fresh one if another process took it first. It returns
// once the port accepts connections.
func startServer(o *options, addr string) (*tcpServer, error) {
	for attempt := 1; ; attempt++ {
		s, err := tryStartServer(o, addr)
		if err == nil || addr != "" || attempt == 3 {
			return s, err
		}
		fmt.Fprintf(stderr, "perfbench: %v; retrying on another port\n", err)
	}
}

func tryStartServer(o *options, addr string) (*tcpServer, error) {
	if addr == "" {
		var err error
		if addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	s := &tcpServer{addr: addr}
	args := []string{"-addr", addr, "-autocommit", "0"}
	if o.trace {
		var err error
		if s.debugAddr, err = freeAddr(); err != nil {
			return nil, err
		}
		args = append(args, "-debug", s.debugAddr)
	}
	ch, _, err := startChild(filepath.Join(o.bin, "cprserver"), args, stderr)
	if err != nil {
		return nil, err
	}
	s.ch = ch
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return s, nil
		}
		select {
		case <-ch.exited:
			return nil, fmt.Errorf("cprserver on %s exited before listening", addr)
		default:
		}
		if time.Now().After(deadline) {
			ch.stop()
			return nil, fmt.Errorf("cprserver did not listen on %s: %w", addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *tcpServer) pid() int { return s.ch.cmd.Process.Pid }

// tcpConn is one closed-loop client connection (one server session).
type tcpConn struct {
	c      *kvserver.Client
	ring   []uint64
	pos    int
	issued uint64 // data ops issued on the session, load included
	chk    *checks

	ops, sets uint64
	lat       *series // BATCH round trips on A, single-op round trips on B
	busy      time.Duration
	commits   []float64 // B: COMMIT round trips, ms
}

func (t *tcpConn) resetWindow(start time.Time, slices int) {
	t.ops, t.sets, t.busy, t.commits = 0, 0, 0, nil
	t.lat = newSeries(start, tcpSlice, slices)
}

// load writes keys [from, to) in BATCH frames of tcpBatch SETs.
func (t *tcpConn) load(from, to, seed uint64) error {
	p := t.c.Pipeline()
	var kb, vb [8]byte
	for k := from; k < to; {
		for ; k < to && p.Len() < tcpBatch; k++ {
			binary.LittleEndian.PutUint64(kb[:], k)
			binary.LittleEndian.PutUint64(vb[:], loadValue(seed, k))
			p.Set(kb[:], vb[:])
		}
		res, err := p.Flush()
		if err != nil {
			return err
		}
		t.checkBatch(res)
	}
	return nil
}

// checkBatch checks every entry of a BATCH reply: OK status, an 8-byte value
// for GET, and for SET the session serial the op must have been given.
func (t *tcpConn) checkBatch(res []kvserver.BatchResult) {
	for _, r := range res {
		t.issued++
		if r.Status != kvserver.StatusOK {
			t.chk.failf("batch op %d (seq %d) returned status %d", r.Op, r.Seq, r.Status)
			continue
		}
		if r.Op == kvserver.OpGet {
			if len(r.Value) != 8 {
				t.chk.failf("batch GET returned a %d-byte value", len(r.Value))
			}
		} else if r.Serial != t.issued {
			t.chk.failf("batch SET serial %d, want %d", r.Serial, t.issued)
		}
	}
}

// batchLoop is connection A: BATCH frames of tcpBatch GET/SET ops.
func (t *tcpConn) batchLoop(stop *atomic.Bool) error {
	p := t.c.Pipeline()
	var kb, vb [8]byte
	mask := len(t.ring) - 1
	for !stop.Load() {
		for j := 0; j < tcpBatch; j++ {
			o := t.ring[t.pos&mask]
			t.pos++
			binary.LittleEndian.PutUint64(kb[:], o&keyMask)
			if o>>56 == opRead {
				p.Get(kb[:])
			} else {
				binary.LittleEndian.PutUint64(vb[:], uint64(t.pos))
				p.Set(kb[:], vb[:])
				t.sets++
			}
		}
		t0 := time.Now()
		res, err := p.Flush()
		t1 := time.Now()
		d := t1.Sub(t0)
		if err != nil {
			return err
		}
		t.lat.add(t1, d)
		t.busy += d
		t.ops += uint64(len(res))
		t.checkBatch(res)
	}
	return nil
}

// singleLoop is connection B: synchronous single-op GET/SET frames and a
// COMMIT every tcpCommitEvery, whose CPR point must cover every op B issued.
func (t *tcpConn) singleLoop(stop *atomic.Bool, skew uint64) error {
	var kb, vb [8]byte
	mask := len(t.ring) - 1
	nextCommit := time.Now().Add(tcpCommitEvery)
	for !stop.Load() {
		if !time.Now().Before(nextCommit) {
			t0 := time.Now()
			point, err := t.c.Commit(false)
			if err != nil {
				return fmt.Errorf("commit: %w", err)
			}
			t.commits = append(t.commits, float64(time.Since(t0))/1e6)
			if want := t.issued + skew; point != want {
				t.chk.failf("COMMIT CPR point %d, want %d", point, want)
			}
			nextCommit = nextCommit.Add(tcpCommitEvery)
			continue
		}
		o := t.ring[t.pos&mask]
		t.pos++
		binary.LittleEndian.PutUint64(kb[:], o&keyMask)
		t0 := time.Now()
		if o>>56 == opRead {
			v, found, err := t.c.Get(kb[:])
			t1 := time.Now()
			d := t1.Sub(t0)
			if err != nil {
				return err
			}
			t.issued++
			if !found || len(v) != 8 {
				t.chk.failf("GET of loaded key %d: found=%v, %d bytes", o&keyMask, found, len(v))
			}
			t.lat.add(t1, d)
			t.busy += d
		} else {
			binary.LittleEndian.PutUint64(vb[:], uint64(t.pos))
			serial, err := t.c.Set(kb[:], vb[:])
			t1 := time.Now()
			d := t1.Sub(t0)
			if err != nil {
				return err
			}
			t.issued++
			t.sets++
			if serial != t.issued {
				t.chk.failf("SET serial %d, want %d", serial, t.issued)
			}
			t.lat.add(t1, d)
			t.busy += d
		}
		t.ops++
	}
	return nil
}

// tcpRun is one started server with its loaded connections. STATS and
// flight dumps travel on A between windows: a third, idle session would
// only refresh at the server's idle-poll cadence and stretch every commit.
type tcpRun struct {
	srv  *tcpServer
	a, b *tcpConn
}

func (r *tcpRun) close() {
	for _, c := range []*kvserver.Client{r.a.c, r.b.c} {
		if c != nil {
			c.Close()
		}
	}
	r.srv.ch.stop()
}

// setupTCP starts a server and loads the keys through A and B.
// Connection i starts its ops at rings[i][pos[i]].
func setupTCP(o *options, rings [][]uint64, pos []int, chk *checks) (*tcpRun, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(o, "")
	if err != nil {
		return nil, 0, err
	}
	r := &tcpRun{srv: srv,
		a: &tcpConn{ring: rings[0], pos: pos[0], chk: chk},
		b: &tcpConn{ring: rings[1], pos: pos[1], chk: chk}}
	fail := func(err error) (*tcpRun, time.Duration, error) {
		r.close()
		return nil, 0, err
	}
	for _, t := range []*tcpConn{r.a, r.b} {
		if t.c, err = kvserver.Dial(srv.addr, ""); err != nil {
			return fail(err)
		}
	}
	half := o.tcpKeys / 2
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, t := range []*tcpConn{r.a, r.b} {
		wg.Add(1)
		go func(i int, t *tcpConn) {
			defer wg.Done()
			to := uint64(i+1) * half
			if i == 1 {
				to = o.tcpKeys
			}
			errs[i] = t.load(uint64(i)*half, to, o.inputSeed)
		}(i, t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	return r, time.Since(t0), nil
}

// tcpSnap is the server state sampled at a window boundary.
type tcpSnap struct {
	stats  kvserver.StatsSnapshot
	flight obs.FlightDump
	cpu    float64
	prom   map[string][]float64
}

func (r *tcpRun) snap(prom bool) (tcpSnap, error) {
	var s tcpSnap
	var err error
	if s.stats, err = r.a.c.Stats(); err != nil {
		return s, err
	}
	if s.flight, err = r.a.c.Flight(""); err != nil {
		return s, err
	}
	if s.cpu, err = procCPUSeconds(r.srv.pid()); err != nil {
		return s, err
	}
	if prom {
		s.prom, err = scrapeBuckets(r.srv.debugAddr)
	}
	return s, err
}

// newEvents returns the flight events of after that before did not hold.
func newEvents(before, after obs.FlightDump) []obs.FlightEvent {
	last := map[int]uint64{}
	for _, e := range before.Events {
		if e.Seq >= last[e.Ring] {
			last[e.Ring] = e.Seq + 1
		}
	}
	var out []obs.FlightEvent
	for _, e := range after.Events {
		if e.Seq >= last[e.Ring] {
			out = append(out, e)
		}
	}
	return out
}

// tcpWindow is what one measured tcp-mixed window yields.
type tcpWindow struct {
	elapsed     time.Duration
	ops, sets   uint64
	batch       []hist // A's BATCH round trips, complete slices
	single      []hist // B's single-op round trips, complete slices
	before, end tcpSnap
	mem0, mem1  runtime.MemStats
	peakMB      float64 // server VmHWM when the final commit is durable
}

// window runs A and B for d.
func (r *tcpRun) window(o *options, d time.Duration, traced bool) (*tcpWindow, error) {
	w := &tcpWindow{}
	var err error
	if w.before, err = r.snap(traced); err != nil {
		return nil, err
	}
	if traced {
		runtime.ReadMemStats(&w.mem0)
	}
	start, slices := time.Now(), int(d/tcpSlice)
	r.a.resetWindow(start, slices)
	r.b.resetWindow(start, slices)
	var stop atomic.Bool
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); errs[0] = r.a.batchLoop(&stop) }()
	go func() { defer wg.Done(); errs[1] = r.b.singleLoop(&stop, o.skew) }()
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	end := time.Now()
	w.elapsed = end.Sub(start)
	w.batch, w.single = r.a.lat.full(end), r.b.lat.full(end)
	if traced {
		runtime.ReadMemStats(&w.mem1)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w.ops = r.a.ops + r.b.ops
	w.sets = r.a.sets + r.b.sets
	return w, nil
}

// rates returns, per slice, the ops both connections completed per second.
func (w *tcpWindow) rates() []float64 {
	var xs []float64
	for i := range w.batch {
		xs = append(xs, float64(w.batch[i].n*tcpBatch+w.single[i].n)/tcpSlice.Seconds())
	}
	return xs
}

// finish takes the final index commit on A, checks both CPR points, and
// samples the server state that the window's metrics are computed from.
func (r *tcpRun) finish(o *options, w *tcpWindow, traced bool, chk *checks) error {
	point, err := r.a.c.Commit(true)
	if err != nil {
		return fmt.Errorf("final commit: %w", err)
	}
	if want := r.a.issued + o.skew; point != want {
		chk.failf("final index commit: A's CPR point %d, want %d", point, want)
	}
	serial, _, err := r.b.c.WaitDurable()
	if err != nil {
		return fmt.Errorf("wait-durable: %w", err)
	}
	if want := r.b.issued + o.skew; serial != want {
		chk.failf("final index commit: B's durable serial %d, want %d", serial, want)
	}
	if w.peakMB, err = procPeakRSSMB(r.srv.pid()); err != nil {
		return err
	}
	w.end, err = r.snap(traced)
	return err
}

func counterDelta(w *tcpWindow, name string) float64 {
	return float64(w.end.stats.Metrics.Counters[name] - w.before.stats.Metrics.Counters[name])
}

// written returns the device bytes plus checkpoint-artifact bytes written
// during the window and its final commit, and the user key+value bytes the
// window's SETs wrote.
func (w *tcpWindow) written() (stored, user float64) {
	for _, e := range newEvents(w.before.flight, w.end.flight) {
		if e.Kind == obs.FlightArtifactWrite {
			stored += float64(e.Arg1)
		}
	}
	return stored + counterDelta(w, "storage_io_write_bytes_total"), float64(w.sets) * 16
}

// checkShape invalidates an episode whose BATCH frames did not reach the
// server at depth tcpBatch, or whose log outgrew the server's memory (the
// workload is defined with every record in memory).
func checkShape(w *tcpWindow, chk *checks) {
	if p50 := w.end.stats.Metrics.Histograms["faster_batch_depth"].P50Nanos; p50 != tcpBatch {
		chk.invalidf("server batch depth p50 %d, want %d", p50, tcpBatch)
	}
	if h0, h1 := w.before.stats.LogHead, w.end.stats.LogHead; h1 != h0 {
		chk.invalidf("the server log head moved from %d to %d: records left memory", h0, h1)
	}
}

// episodeTCP sets up a server, measures one window on it and checks it.
// The caller closes the returned run.
func episodeTCP(o *options, rings [][]uint64, pos []int, d time.Duration, traced bool, chk *checks) (*tcpRun, *tcpWindow, time.Duration, error) {
	r, setup, err := setupTCP(o, rings, pos, chk)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("setup: %w", err)
	}
	if err := resetPeakRSS(r.srv.pid()); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	w, err := r.window(o, d, traced)
	if err == nil {
		err = r.finish(o, w, traced, chk)
	}
	if err != nil {
		r.close()
		return nil, nil, 0, err
	}
	checkShape(w, chk)
	pos[0], pos[1] = r.a.pos, r.b.pos
	return r, w, setup, nil
}

func tcpRings(o *options) [][]uint64 {
	z := newZipf(o.tcpKeys, 0.99)
	return [][]uint64{
		opRing(tcpRingLen, z, mix{read: 50, upsert: 50}, newRNG(o.inputSeed, 1)),
		opRing(tcpRingLen, z, mix{read: 50, upsert: 50}, newRNG(o.inputSeed, 2)),
	}
}

func runTCP(o *options, chk *checks) (map[string]metric, uint64, error) {
	rings := tcpRings(o)
	if o.trace {
		return traceTCP(o, rings, chk)
	}
	var (
		setups, peaks, commits, rates, restarts []float64
		single, batch                           []hist
		stored, user                            float64
		ops                                     uint64
		pos                                     = make([]int, 2)
	)
	n, epLen := episodes(o.duration(), tcpEpisode)
	for ep := 0; ep < n; ep++ {
		runtime.GC()
		r, w, setup, err := episodeTCP(o, rings, pos, epLen, false, chk)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, setup.Seconds())
		peaks = append(peaks, w.peakMB)
		commits = append(commits, r.b.commits...)
		rates = append(rates, w.rates()...)
		single, batch = append(single, w.single...), append(batch, w.batch...)
		st, us := w.written()
		stored, user, ops = stored+st, user+us, ops+w.ops
		logWindow(fmt.Sprintf("tcp-mixed episode %d single-op", ep), w.single, r.b.commits)
		if ep < n-1 {
			r.close()
			continue
		}
		if restarts, err = restartTimes(o, r); err != nil {
			return nil, 0, err
		}
	}
	if want := max(int(o.duration()/tcpCommitEvery)/2, 1); len(commits) < want {
		chk.invalidf("%d commits completed in the run, want at least %d", len(commits), want)
	}
	fmt.Fprintf(stderr, "tcp-mixed: %d ops in %d episodes of %v, %d commits\n", ops, n, epLen, len(commits))
	m := map[string]metric{
		"throughput_ops": {median(rates), "ops/s"},
		"latency_p50_us": {sliceQuantile(single, 0.50) / 1e3, "us"},
		"latency_p99_us": {sliceQuantile(single, 0.99) / 1e3, "us"},
		"batch_p50_us":   {sliceQuantile(batch, 0.50) / 1e3, "us"},
		"batch_p99_us":   {sliceQuantile(batch, 0.99) / 1e3, "us"},
		"commit_p50_ms":  {median(commits), "ms"},
		"write_amp":      {ratio(stored, user), "ratio"},
		"recover_s":      {median(restarts), "s"},
		"mem_peak_mb":    {median(peaks), "MB"},
		"setup_s":        {median(setups), "s"},
	}
	return m, ops + uint64(len(commits)+2*n), nil
}

// restartTimes kills the server and restarts it on the same port
// tcpRestarts times, timing each from the kill until both sessions are
// resumed on the new process. The server runs in memory, so this is its
// whole recovery. It leaves no server running.
func restartTimes(o *options, r *tcpRun) ([]float64, error) {
	addr := r.srv.addr
	ids := []string{r.a.c.ID(), r.b.c.ID()}
	var secs []float64
	for rep := 0; rep < tcpRestarts; rep++ {
		t0 := time.Now()
		r.close()
		srv, err := startServer(o, addr)
		if err != nil {
			return nil, err
		}
		r.srv = srv
		for i, id := range ids {
			c, err := kvserver.Dial(addr, id)
			if err != nil {
				srv.ch.stop()
				return nil, err
			}
			[]*tcpConn{r.a, r.b}[i].c = c
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	r.close()
	return secs, nil
}

// scrapeBuckets reads the server's Prometheus exposition and returns each
// histogram's cumulative bucket counts, indexed like obs.Histogram buckets.
func scrapeBuckets(addr string) (map[string][]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics.prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string][]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.Index(line, "_bucket{le=\"")
		if i < 0 {
			continue
		}
		name := line[:i]
		rest := line[i+len("_bucket{le=\""):]
		j := strings.Index(rest, "\"}")
		if j < 0 || rest[:j] == "+Inf" {
			continue
		}
		count, err := strconv.ParseFloat(strings.TrimSpace(rest[j+2:]), 64)
		if err != nil {
			return nil, err
		}
		out[name] = append(out[name], count)
	}
	return out, sc.Err()
}

// bucketMedian returns the median of the observations a log2 histogram
// gained between two scrapes, interpolated linearly inside its bucket
// (bucket i holds [2^(i-1), 2^i)).
func bucketMedian(before, after []float64) float64 {
	n := len(after)
	delta := make([]float64, n)
	var prev, prevB float64
	var total float64
	for i := 0; i < n; i++ {
		var b float64
		if i < len(before) {
			b = before[i]
		} else if len(before) > 0 {
			b = before[len(before)-1]
		}
		delta[i] = (after[i] - prev) - (b - prevB)
		prev, prevB = after[i], b
		total += delta[i]
	}
	if total <= 0 {
		return 0
	}
	target, seen := total/2, 0.0
	for i, c := range delta {
		if c <= 0 {
			continue
		}
		if seen+c >= target {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1))
			return lo + lo*(target-seen)/c
		}
		seen += c
	}
	return 0
}

// traceTCP is the traced run of tcp-mixed. It alternates untraced episodes
// (the baseline for trace.overhead_pct) with traced ones and reports the
// per-layer metrics as medians over the traced episodes. Every server runs
// with a debug listener, which traced episodes scrape for the latency
// histograms' buckets.
func traceTCP(o *options, rings [][]uint64, chk *checks) (map[string]metric, uint64, error) {
	n, epLen := episodes(max(o.duration()/2, tcpSlice), tcpEpisode)
	pos := make([]int, 2)
	var base, traced []float64
	var eps []map[string]float64
	var ops uint64
	for ep := 0; ep < n; ep++ {
		// Alternate which side runs first, so warm-up and drift fall on both.
		for _, on := range []bool{ep%2 == 1, ep%2 == 0} {
			runtime.GC()
			r, w, _, err := episodeTCP(o, rings, pos, epLen, on, chk)
			if err != nil {
				return nil, 0, err
			}
			r.close()
			ops += w.ops
			if !on {
				base = append(base, w.rates()...)
				continue
			}
			traced = append(traced, w.rates()...)
			eps = append(eps, tcpLayers(r, w, chk))
		}
	}
	single, batch, err := echoRTT(time.Second)
	if err != nil {
		return nil, 0, fmt.Errorf("echo: %w", err)
	}
	vals := medianEach(eps)
	thr0, thr1 := median(base), median(traced)
	vals["trace.overhead_pct"] = 100 * (thr0 - thr1) / thr0
	vals["net.echo_rtt_us"], vals["net.echo_batch_rtt_us"] = single, batch
	vals["kvserver.single_server_us"] -= single
	vals["kvserver.batch_server_us"] -= batch
	standaloneLayers(rings[0], vals)
	fmt.Fprintf(stderr, "tcp-mixed traced: %d ops, untraced %.0f ops/s, traced %.0f ops/s\n", ops, thr0, thr1)
	return layerMetrics(vals), ops, nil
}

// tcpLayers computes one traced episode's per-layer values. The two
// *_server_us entries hold the round trips until traceTCP subtracts the
// echo round trips.
func tcpLayers(r *tcpRun, w *tcpWindow, chk *checks) map[string]float64 {
	ops := float64(w.ops)
	evs := newEvents(w.before.flight, w.end.flight)
	tokens := map[string]bool{}
	for _, e := range evs {
		if e.Kind == obs.FlightPhase {
			tokens[e.Token] = true
		}
	}
	vals := map[string]float64{
		"faster.pending_ratio":       ratio(counterDelta(w, "faster_pending_ops_total"), ops),
		"storage.reads_per_op":       ratio(counterDelta(w, "storage_io_reads_total"), ops),
		"storage.write_bytes_per_op": ratio(counterDelta(w, "storage_io_write_bytes_total"), ops),
		"hlog.log_bytes_per_op":      ratio(float64(w.end.stats.LogTail)-float64(w.before.stats.LogTail), ops),
		"commit.bytes":               ratio(counterDelta(w, "faster_commit_bytes_total"), counterDelta(w, "faster_commits_total")),
		"kvserver.single_server_us":  sliceQuantile(w.single, 0.5) / 1e3,
		"kvserver.batch_server_us":   sliceQuantile(w.batch, 0.5) / 1e3,
		"kvserver.exec_p50_us":       bucketMedian(w.before.prom["faster_op_exec_ns"], w.end.prom["faster_op_exec_ns"]) / 1e3,
		"kvserver.queue_p50_us":      bucketMedian(w.before.prom["faster_op_queue_ns"], w.end.prom["faster_op_queue_ns"]) / 1e3,
		"kvserver.batch_depth_p50":   float64(w.end.stats.Metrics.Histograms["faster_batch_depth"].P50Nanos),
		"kvserver.replies_per_flush": ratio(counterDelta(w, "faster_net_coalesced_replies_total"), counterDelta(w, "faster_net_coalesced_flushes_total")),
		"runtime.allocs_per_op":      ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), ops),
		"runtime.bytes_per_op":       ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc), ops),
		"runtime.cpu_us_per_op":      ratio((w.end.cpu-w.before.cpu)*1e6, ops),
		"runtime.gc_pause_ms":        float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6 / w.elapsed.Seconds(),
		"trace.coverage":             ratio(float64(r.a.busy+r.b.busy), 2*float64(w.elapsed)),
		"error_rate":                 ratio(float64(chk.failed), ops),
	}
	flightLayers(evs, tokens, 0, vals)
	return vals
}
