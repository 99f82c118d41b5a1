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
	"repro/internal/kvserver"
	"repro/internal/obs"
	"repro/internal/repl"
)

// tailtrace drives traced kvserver clients against a live server and sweeps
// the auto-commit cadence with replication off and on, decomposing client
// tail latency into the per-hop histograms the request tracer feeds
// (queue/exec/durwait). The durability-wait hop should shrink as commits
// become more frequent — durwait is bounded by the cadence of the covering
// commit — while exec stays flat, which is the attribution claim behind the
// TRACE op and fasterctl trace.
func init() {
	register(Experiment{
		ID:    "tailtrace",
		Title: "Tail-latency attribution: durwait vs commit cadence, repl off/on",
		Paper: "Sec. 3 (session durability), replication extension",
		Run:   runTailTrace,
	})
}

func runTailTrace(cfg Config, w io.Writer) error {
	duration := cfg.Seconds
	if cfg.Addr != "" {
		// External mode: drive a live cprserver instead of an in-process one
		// (its commit cadence is whatever -autocommit it runs with). Span
		// trees are then inspectable with `fasterctl trace -addr`.
		return runTailTraceExternal(cfg, w, duration)
	}
	// Sweep from sparse to frequent commits; durwait ~ cadence/2 on average.
	cadences := []time.Duration{
		time.Duration(duration / 2 * float64(time.Second)),
		time.Duration(duration / 8 * float64(time.Second)),
		time.Duration(duration / 32 * float64(time.Second)),
	}
	fmt.Fprintf(w, "%-12s %-5s %10s %12s %12s %12s %12s\n",
		"cadence(ms)", "repl", "Mops/sec", "wd-p50(ms)", "wd-p99(ms)", "durw-p50(ms)", "exec-p50(us)")
	for _, withRepl := range []bool{false, true} {
		for _, cadence := range cadences {
			if cadence < time.Millisecond {
				cadence = time.Millisecond
			}
			if err := runTailTracePoint(cfg, w, cadence, withRepl, duration); err != nil {
				return err
			}
		}
	}
	return nil
}

func runTailTracePoint(cfg Config, w io.Writer, cadence time.Duration, withRepl bool, duration float64) error {
	keys := uint64(scaled(20_000, cfg.Scale))
	threads := cfg.Threads
	if threads > 4 {
		threads = 4 // the loopback, not the store, saturates first
	}

	mk := func() faster.Config { return storeConfig(FasterParams{Keys: keys, ValueSize: 8, Shards: cfg.Shards}) }

	storeCfg := mk()
	storeCfg.ReqTrace = obs.NewRequestTracer(64)
	store, err := faster.Open(storeCfg)
	if err != nil {
		return err
	}
	defer store.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := kvserver.NewServer(store)
	srv.AutoCommit = cadence // must be set before Serve starts the committer
	go srv.Serve(ln)         //nolint:errcheck
	defer srv.Close()
	addr := ln.Addr().String()

	if withRepl {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		rsrv := repl.NewServer(store)
		rsrv.ClientAddr = addr
		srv.ReplStats = rsrv.ReplStats
		go rsrv.Serve(rln) //nolint:errcheck
		defer rsrv.Close()
		rep, err := repl.NewReplica(repl.Config{
			Upstream: rln.Addr().String(), StoreConfig: mk(),
		})
		if err != nil {
			return err
		}
		defer rep.Store().Close()
		defer rep.Close()
	}

	mops, wdNs, setNs := tailLoad(addr, threads, keys, duration)

	snap := store.Metrics().Snapshot()
	durw := snap.Histograms["faster_op_durwait_ns"]
	exec := snap.Histograms["faster_op_exec_ns"]
	queue := snap.Histograms["faster_op_queue_ns"]

	wdP50 := float64(pctile(wdNs, 0.50)) / 1e6
	wdP99 := float64(pctile(wdNs, 0.99)) / 1e6
	replCol := "off"
	if withRepl {
		replCol = "on"
	}
	fmt.Fprintf(w, "%-12.1f %-5s %10.3f %12.2f %12.2f %12.2f %12.2f\n",
		float64(cadence)/1e6, replCol, mops, wdP50, wdP99,
		float64(durw.P50Nanos)/1e6, float64(exec.P50Nanos)/1e3)

	row := Row{
		"cadence_ms":      float64(cadence) / 1e6,
		"repl":            withRepl,
		"mops":            mops,
		"waitdur_calls":   len(wdNs),
		"wd_p50_ms":       wdP50,
		"wd_p99_ms":       wdP99,
		"set_p50_us":      float64(pctile(setNs, 0.50)) / 1e3,
		"set_p99_us":      float64(pctile(setNs, 0.99)) / 1e3,
		"durwait":         histRow(durw),
		"exec":            histRow(exec),
		"queue":           histRow(queue),
		"traces_retained": len(store.RequestTracer().Slowest(0)),
	}
	if withRepl {
		row["replwait"] = histRow(snap.Histograms["faster_op_replwait_ns"])
	}
	cfg.Record(row)
	return nil
}

// tailLoad drives the traced client workload against addr for duration
// seconds: every worker blind-writes batches of 64 keys, and worker 0 probes
// the durability hop with WaitDurable between batches while the rest keep the
// store busy (so the probe measures durwait, not an idle box). Returns the
// achieved throughput plus client-observed wait-durable and sampled set
// latencies.
func tailLoad(addr string, threads int, keys uint64, duration float64) (mops float64, wdNs, setNs []int64) {
	var opsTotal atomic.Uint64
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := kvserver.Dial(addr, "")
			if err != nil {
				return
			}
			defer c.Close()
			rng := seed*2654435761 + 1
			var kb, vb [8]byte
			var localWd, localSet []int64
			for {
				select {
				case <-stop:
					mu.Lock()
					wdNs = append(wdNs, localWd...)
					setNs = append(setNs, localSet...)
					mu.Unlock()
					return
				default:
				}
				for b := 0; b < 64; b++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint64(kb[:], rng%keys)
					binary.LittleEndian.PutUint64(vb[:], rng)
					t0 := time.Now()
					if _, err := c.Set(kb[:], vb[:]); err != nil {
						return
					}
					if b&15 == 0 {
						localSet = append(localSet, time.Since(t0).Nanoseconds())
					}
					opsTotal.Add(1)
				}
				if seed == 0 {
					t0 := time.Now()
					if _, _, err := c.WaitDurable(); err != nil {
						return
					}
					localWd = append(localWd, time.Since(t0).Nanoseconds())
				}
			}
		}(uint64(i))
	}
	start := time.Now()
	time.Sleep(time.Duration(duration * float64(time.Second)))
	close(stop)
	wg.Wait()
	return float64(opsTotal.Load()) / time.Since(start).Seconds() / 1e6, wdNs, setNs
}

// runTailTraceExternal is the -addr mode: the same workload pointed at an
// already-running cprserver. Server-side histograms are not reachable here;
// the row carries the client-observed decomposition and the server's span
// trees are inspected with `fasterctl trace -addr`.
func runTailTraceExternal(cfg Config, w io.Writer, duration float64) error {
	keys := uint64(scaled(20_000, cfg.Scale))
	threads := cfg.Threads
	if threads > 4 {
		threads = 4
	}
	mops, wdNs, setNs := tailLoad(cfg.Addr, threads, keys, duration)
	wdP50 := float64(pctile(wdNs, 0.50)) / 1e6
	wdP99 := float64(pctile(wdNs, 0.99)) / 1e6
	fmt.Fprintf(w, "%-24s %10s %12s %12s %12s %12s\n",
		"server", "Mops/sec", "wd-p50(ms)", "wd-p99(ms)", "set-p50(us)", "set-p99(us)")
	fmt.Fprintf(w, "%-24s %10.3f %12.2f %12.2f %12.2f %12.2f\n",
		cfg.Addr, mops, wdP50, wdP99,
		float64(pctile(setNs, 0.50))/1e3, float64(pctile(setNs, 0.99))/1e3)
	cfg.Record(Row{
		"addr": cfg.Addr, "mops": mops, "waitdur_calls": len(wdNs),
		"wd_p50_ms": wdP50, "wd_p99_ms": wdP99,
		"set_p50_us": float64(pctile(setNs, 0.50)) / 1e3,
		"set_p99_us": float64(pctile(setNs, 0.99)) / 1e3,
	})
	return nil
}
