package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// medianEach reduces per-episode layer values to their medians.
func medianEach(eps []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range eps[0] {
		var xs []float64
		for _, e := range eps {
			xs = append(xs, e[k])
		}
		out[k] = median(xs)
	}
	return out
}

// traceEmbedded is the traced run of an embedded workload. It alternates
// untraced episodes (the baseline for trace.overhead_pct) with traced ones,
// whose stores have a flight recorder and timed storage wrappers, and
// reports the per-layer metrics as medians over the traced episodes.
func traceEmbedded(o *options, spec embSpec, rings [][]uint64, chk *checks) (map[string]metric, uint64, error) {
	n, epLen := episodes(max(o.duration()/2, sliceWidth), embEpisode)
	pos := make([]int, embSessions)
	var base, traced []float64
	var eps []map[string]float64
	var ops uint64
	for ep := 0; ep < n; ep++ {
		// Alternate which side runs first, so warm-up and drift fall on both.
		for _, on := range []bool{ep%2 == 1, ep%2 == 0} {
			runtime.GC()
			debug.FreeOSMemory()
			var fr *obs.FlightRecorder
			if on {
				fr = obs.NewFlightRecorder(flightPerRing)
			}
			s, _, err := setupStore(spec, rings, pos, o.inputSeed, fr, chk)
			if err != nil {
				return nil, 0, fmt.Errorf("setup: %w", err)
			}
			for _, st := range []*ioStats{&s.dev.reads, &s.dev.writes, &s.ckpts.writes} {
				st.timing.Store(on)
				st.takeHist()
			}
			fromNs := time.Now().UnixNano() - fr.WallStart()
			r, err := runWindow(s, epLen, on, o.skew, chk)
			if err != nil {
				s.st.Close()
				return nil, 0, err
			}
			for i, w := range s.workers {
				pos[i] = w.pos
			}
			ops += r.ops
			if !on {
				base = append(base, sliceRate(r.lat, sliceWidth, 1))
				s.st.Close()
				continue
			}
			traced = append(traced, sliceRate(r.lat, sliceWidth, 1))
			vals := embLayers(o, spec, s, r, fr, fromNs, chk)
			ops += missReads
			eps = append(eps, vals)
			s.st.Close()
		}
	}
	vals := medianEach(eps)
	thr0, thr1 := median(base), median(traced)
	vals["trace.overhead_pct"] = 100 * (thr0 - thr1) / thr0
	standaloneLayers(rings[0], vals)
	single, batch, err := echoRTT(time.Second)
	if err != nil {
		return nil, 0, fmt.Errorf("echo: %w", err)
	}
	vals["net.echo_rtt_us"], vals["net.echo_batch_rtt_us"] = single, batch
	fmt.Fprintf(stderr, "%s traced: %d ops, untraced %.0f ops/s, traced %.0f ops/s\n", o.workload, ops, thr0, thr1)
	return layerMetrics(vals), ops, nil
}

// embLayers computes one traced episode's per-layer values and checks its
// shape. It also times reads of absent keys on the quiescent store.
func embLayers(o *options, spec embSpec, s *embStore, r *windowResult, fr *obs.FlightRecorder, fromNs int64, chk *checks) map[string]float64 {
	evs, dropped := fr.Events()
	if dropped > 0 {
		fmt.Fprintf(stderr, "%s: flight recorder dropped %d events; phase timings use the retained ones\n", o.workload, dropped)
	}
	pr := ratio(float64(r.pending), float64(r.ops))
	if err := spec.shape(pr, r.devReadCalls); err != nil {
		chk.invalidf("%v", err)
	}
	if len(r.commits.durs) < 1 {
		chk.invalidf("no commit completed in a traced episode")
	}
	var readH, upsertH, rmwH, pendH, compH hist
	var busy time.Duration
	for _, w := range r.workers {
		readH.merge(&w.readH)
		upsertH.merge(&w.upsertH)
		rmwH.merge(&w.rmwH)
		pendH.merge(&w.pendH)
		compH.merge(&w.compH)
		busy += w.busy
	}
	ops := float64(r.ops)
	devReads := s.dev.reads.takeHist()
	devWrites := s.dev.writes.takeHist()
	ckpt := s.ckpts.writes.takeHist()
	commits := float64(len(r.commits.durs)) + 1 // the episode's commits and its final one
	vals := map[string]float64{
		"faster.read_ns":             readH.quantile(0.5),
		"faster.upsert_ns":           upsertH.quantile(0.5),
		"faster.rmw_ns":              rmwH.quantile(0.5),
		"faster.pending_ratio":       pr,
		"faster.pending_done_us":     pendH.quantile(0.5) / 1e3,
		"faster.complete_pending_ns": compH.quantile(0.5),
		"storage.reads_per_op":       ratio(float64(r.devReadCalls), ops),
		"storage.read_us":            devReads.quantile(0.5) / 1e3,
		"storage.write_us":           devWrites.quantile(0.5) / 1e3,
		"storage.ckpt_write_ms":      ckpt.sum / 1e6 / commits,
		"storage.write_bytes_per_op": ratio(float64(r.devWrites), ops),
		"hlog.log_bytes_per_op":      ratio(float64(r.logBytes), ops),
		"commit.bytes":               median(r.commits.bytes),
		"runtime.allocs_per_op":      ratio(float64(r.mem1.Mallocs-r.mem0.Mallocs), ops),
		"runtime.bytes_per_op":       ratio(float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc), ops),
		"runtime.cpu_us_per_op":      ratio(r.cpu*1e6, ops),
		"runtime.gc_pause_ms":        float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e6 / r.elapsed.Seconds(),
		"trace.coverage":             ratio(float64(busy), float64(r.elapsed)*float64(len(r.workers))),
		"error_rate":                 ratio(float64(chk.failed), ops),
	}
	flightLayers(evs, r.commits.tokens, fromNs, vals)

	// Reads of absent keys: hash plus index probe, no record found.
	sess := s.workers[0].sess
	var kb [8]byte
	t0 := time.Now()
	for i := uint64(0); i < missReads; i++ {
		binary.LittleEndian.PutUint64(kb[:], spec.keys+i)
		if _, st := sess.Read(kb[:], nil); st == faster.Pending {
			sess.CompletePending(true)
		} else if st != faster.NotFound {
			chk.failf("read of absent key %d returned %v", spec.keys+i, st)
		}
	}
	vals["faster.read_miss_ns"] = float64(time.Since(t0)) / missReads
	return vals
}
