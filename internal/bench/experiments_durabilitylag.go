package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// durabilitylag measures per-session durability lag — how far each session's
// issued serial runs ahead of its committed CPR point t_i, in operations and
// wall time — as a function of the commit cadence. Slower cadences trade
// commit overhead for a longer window of unacknowledged work; the experiment
// quantifies that window from the faster_session_lag_* histograms and the
// live SessionLags watermark.
func init() {
	register(Experiment{
		ID:    "durabilitylag",
		Title: "Per-session durability lag (ops and time) vs commit cadence",
		Paper: "observability (no paper counterpart)",
		Run: func(cfg Config, w io.Writer) error {
			keys := uint64(scaled(20_000, cfg.Scale*4))
			threads := cfg.Threads
			if threads < 1 {
				threads = 1
			}
			secs := cfg.Seconds
			if secs <= 0 {
				secs = 1.0
			}
			fmt.Fprintf(w, "%-10s %8s %12s %12s %12s %12s %12s   (%d keys, %d threads, %.1fs/point)\n",
				"cadence", "commits", "lag-p50(ops)", "lag-p99(ops)", "peak(ops)",
				"lag-p99(ms)", "peak(ms)", keys, threads, secs)
			for _, every := range []time.Duration{
				25 * time.Millisecond, 50 * time.Millisecond,
				100 * time.Millisecond, 250 * time.Millisecond,
			} {
				if err := runLagPoint(cfg, w, every, keys, threads, secs); err != nil {
					return err
				}
			}
			return nil
		}})
}

// runLagPoint runs one YCSB-style measurement with commits issued at the
// given cadence, reporting the session durability-lag distribution.
func runLagPoint(cfg Config, w io.Writer, every time.Duration, keys uint64, threads int, secs float64) error {
	reg := obs.NewRegistry()
	sc := storeConfig(FasterParams{Keys: keys, PageBits: 16, MemPages: 64})
	sc.Metrics = reg
	s, err := faster.Open(sc)
	if err != nil {
		return err
	}
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		seed := uint64(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := s.StartSession()
			var kb, vb [8]byte
			for n := uint64(0); !stop.Load(); n++ {
				if n%64 == 0 {
					sess.Refresh()
					sess.CompletePending(false)
				}
				binary.LittleEndian.PutUint64(kb[:], (seed*1_000_003+n*2_654_435_761)%keys)
				binary.LittleEndian.PutUint64(vb[:], n)
				sess.Upsert(kb[:], vb[:])
			}
			sess.CompletePending(true)
			for s.Phase() != faster.Rest {
				sess.Refresh()
				sess.CompletePending(false)
			}
			sess.StopSession()
		}()
	}

	// Committer plus lag watermark sampler: SessionLags is the live view a
	// kvserver stats snapshot exposes; the histograms aggregate per commit.
	var peakOps uint64
	var peakNs int64
	commits := 0
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	sample := time.NewTicker(5 * time.Millisecond)
	defer sample.Stop()
	for time.Now().Before(deadline) {
		select {
		case <-ticker.C:
			if _, err := s.Commit(faster.CommitOptions{}); err == nil {
				commits++
			} else if err != faster.ErrCommitInProgress {
				stop.Store(true)
				wg.Wait()
				return err
			}
		case <-sample.C:
			for _, l := range s.SessionLags() {
				if l.LagOps > peakOps {
					peakOps = l.LagOps
				}
				if l.LagNanos > peakNs {
					peakNs = l.LagNanos
				}
			}
		}
	}
	stop.Store(true)
	wg.Wait()

	snap := reg.Snapshot()
	ops := snap.Histograms["faster_session_lag_ops"]
	ns := snap.Histograms["faster_session_lag_ns"]
	cfg.Record(Row{
		"cadence_ms": float64(every) / 1e6, "commits": commits,
		"lag_ops": histRow(ops), "lag_ns": histRow(ns),
		"peak_ops": peakOps, "peak_ms": float64(peakNs) / 1e6,
	})
	fmt.Fprintf(w, "%-10s %8d %12d %12d %12d %12.2f %12.2f\n",
		every, commits, ops.P50Nanos, ops.P99Nanos, peakOps,
		float64(ns.P99Nanos)/1e6, float64(peakNs)/1e6)
	return nil
}
