package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faster"
	"repro/internal/repl"
)

// repllag measures the replication extension: a primary under a YCSB update
// workload ships commits and its log tail to a loopback replica, and the
// time series shows write throughput alongside the replica's lag — bytes not
// yet received and committed versions not yet installed. The final rows
// verify the replica converges to the primary's last commit once writes
// stop.
func init() {
	register(Experiment{
		ID:    "repllag",
		Title: "Replica lag vs write throughput, YCSB updates, periodic commits",
		Paper: "replication extension (internal/repl)",
		Run:   runReplLag,
	})
}

func runReplLag(cfg Config, w io.Writer) error {
	keys := uint64(scaled(100_000, cfg.Scale))
	threads := cfg.Threads
	if threads > 4 {
		threads = 4 // past a few writers the bottleneck is the loopback, not the store
	}

	mkConfig := func() faster.Config { return storeConfig(FasterParams{Keys: keys, ValueSize: 8, Shards: cfg.Shards}) }

	primary, err := faster.Open(mkConfig())
	if err != nil {
		return err
	}
	defer primary.Close()

	srv := repl.NewServer(primary)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	go srv.Serve(ln) //nolint:errcheck
	defer srv.Close()

	rep, err := repl.NewReplica(repl.Config{Upstream: addr, StoreConfig: mkConfig()})
	if err != nil {
		return err
	}
	defer rep.Store().Close()
	defer rep.Close()

	// Measured run: writers blind-update uniformly while commits fire on a
	// fixed cadence and a sampler logs throughput and replica lag.
	duration := cfg.Seconds * 4 * cfg.TimePoints
	sampleEvery := duration / 12
	commitEvery := duration / 6

	var opsTotal atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			sess := primary.StartSession()
			defer sess.StopSession()
			rng := seed*2654435761 + 1
			var kb [8]byte
			val := make([]byte, 8)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for b := 0; b < 64; b++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint64(kb[:], rng%keys)
					binary.LittleEndian.PutUint64(val, rng)
					if st := sess.Upsert(kb[:], val); st == faster.Pending {
						sess.CompletePending(false)
					}
					opsTotal.Add(1)
				}
				sess.Refresh()
			}
		}(uint64(i))
	}

	committer := primary.StartSession()
	commitDone := make(chan struct{})
	go func() {
		defer close(commitDone)
		defer committer.StopSession()
		tick := time.NewTicker(time.Duration(commitEvery * float64(time.Second)))
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				token, err := primary.Commit(faster.CommitOptions{})
				if err != nil {
					continue // previous commit still in flight
				}
				for {
					if _, ok := primary.TryResult(token); ok {
						break
					}
					committer.Refresh()
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	fmt.Fprintf(w, "%-8s %10s %10s %12s %14s\n",
		"t(s)", "Mops/sec", "applied", "vers-behind", "bytes-behind")
	start := time.Now()
	var lastOps uint64
	lastT := 0.0
	for {
		time.Sleep(time.Duration(sampleEvery * float64(time.Second)))
		now := time.Since(start).Seconds()
		cur := opsTotal.Load()
		st := rep.ReplStats()
		cfg.Record(Row{"t_sec": now, "mops": float64(cur-lastOps) / (now - lastT) / 1e6,
			"applied_version": st.AppliedVersion, "versions_behind": st.VersionsBehind,
			"bytes_behind": st.BytesBehind})
		fmt.Fprintf(w, "%-8.2f %10.2f %10d %12d %14d\n",
			now, float64(cur-lastOps)/(now-lastT)/1e6,
			st.AppliedVersion, st.VersionsBehind, st.BytesBehind)
		lastOps, lastT = cur, now
		if now >= duration {
			break
		}
	}
	close(stop)
	wg.Wait()
	<-commitDone

	// Convergence: one final commit with writers stopped; the replica must
	// install it and report zero lag.
	final := primary.StartSession()
	defer final.StopSession()
	token, err := primary.Commit(faster.CommitOptions{})
	if err == nil {
		for {
			if _, ok := primary.TryResult(token); ok {
				break
			}
			final.Refresh()
			time.Sleep(time.Millisecond)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rep.ReplStats().VersionsBehind > 0 || rep.ReplStats().BytesBehind > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("repllag: replica never converged (%d versions, %d bytes behind)",
				rep.ReplStats().VersionsBehind, rep.ReplStats().BytesBehind)
		}
		time.Sleep(time.Millisecond)
	}
	st := rep.ReplStats()
	fmt.Fprintf(w, "converged: applied version %d, %d bytes received\n",
		st.AppliedVersion,
		rep.Store().Metrics().Snapshot().Counters["repl_received_log_bytes_total"])
	return nil
}
