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
)

// netscale measures what the v3 pipelined wire protocol buys: blind-write
// throughput against a live kvserver swept over connections × pipeline depth.
// Depth 1 is the classic synchronous client (one op per network round-trip);
// deeper pipelines amortize the round-trip, the server-side epoch protection
// (one refresh per BATCH), and the reply write syscalls (coalescing) across
// the whole run. The headline row is single-connection depth 64 vs depth 1 —
// the round-trip dominates a loopback sync client, so pipelining should buy
// well over 5x.
func init() {
	register(Experiment{
		ID:    "netscale",
		Title: "Pipelined wire throughput: connections x batch depth (protocol v3)",
		Paper: "Sec. 6 (throughput scaling), wire-protocol extension",
		Run:   runNetScale,
	})
}

func runNetScale(cfg Config, w io.Writer) error {
	duration := cfg.Seconds
	keys := uint64(scaled(100_000, cfg.Scale))
	connCounts := []int{1, 2, 4}
	depths := []int{1, 8, 64}

	fmt.Fprintf(w, "%-6s %-6s %10s %10s %12s %14s\n",
		"conns", "depth", "Mops/sec", "speedup", "flushes", "replies/flush")
	base := map[int]float64{}
	for _, nc := range connCounts {
		for _, depth := range depths {
			mops, row, err := runNetScalePoint(cfg, nc, depth, keys, duration)
			if err != nil {
				return err
			}
			if depth == depths[0] {
				base[nc] = mops
			}
			speedup := 0.0
			if base[nc] > 0 {
				speedup = mops / base[nc]
			}
			row["speedup_vs_depth1"] = speedup
			flushes, _ := row["coalesced_flushes"].(uint64)
			rpf, _ := row["replies_per_flush"].(float64)
			fmt.Fprintf(w, "%-6d %-6d %10.3f %9.1fx %12d %14.1f\n",
				nc, depth, mops, speedup, flushes, rpf)
			cfg.Record(row)
		}
	}
	return nil
}

func runNetScalePoint(cfg Config, conns, depth int, keys uint64, duration float64) (float64, Row, error) {
	addr := cfg.Addr
	var store *faster.Store
	if addr == "" {
		st, err := faster.Open(storeConfig(FasterParams{Keys: keys, ValueSize: 8, Shards: cfg.Shards}))
		if err != nil {
			return 0, nil, err
		}
		defer st.Close()
		store = st
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, nil, err
		}
		srv := kvserver.NewServer(store)
		go srv.Serve(ln) //nolint:errcheck
		defer srv.Close()
		addr = ln.Addr().String()
	}

	mops := netLoad(addr, conns, depth, keys, duration)
	row := Row{"conns": conns, "depth": depth, "mops": mops}
	if store != nil {
		snap := store.Metrics().Snapshot()
		row["batch_depth"] = histRow(snap.Histograms["faster_batch_depth"])
		flushes := snap.Counters["faster_net_coalesced_flushes_total"]
		replies := snap.Counters["faster_net_coalesced_replies_total"]
		row["coalesced_flushes"] = flushes
		row["coalesced_replies"] = replies
		if flushes > 0 {
			row["replies_per_flush"] = float64(replies) / float64(flushes)
		}
	}
	return mops, row, nil
}

// netLoad drives blind writes at addr from conns connections for duration
// seconds. depth 1 issues synchronous Sets; deeper runs queue depth ops on a
// reused Pipeline and Flush them as one BATCH frame.
func netLoad(addr string, conns, depth int, keys uint64, duration float64) float64 {
	var opsTotal atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := kvserver.Dial(addr, "")
			if err != nil {
				return
			}
			defer c.Close()
			p := c.Pipeline()
			rng := seed*2654435761 + 1
			var kb, vb [8]byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				if depth == 1 {
					rng = rng*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint64(kb[:], rng%keys)
					binary.LittleEndian.PutUint64(vb[:], rng)
					if _, err := c.Set(kb[:], vb[:]); err != nil {
						return
					}
					opsTotal.Add(1)
					continue
				}
				for b := 0; b < depth; b++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					binary.LittleEndian.PutUint64(kb[:], rng%keys)
					binary.LittleEndian.PutUint64(vb[:], rng)
					p.Set(kb[:], vb[:])
				}
				if _, err := p.Flush(); err != nil {
					return
				}
				opsTotal.Add(uint64(depth))
			}
		}(uint64(i))
	}
	start := time.Now()
	time.Sleep(time.Duration(duration * float64(time.Second)))
	close(stop)
	wg.Wait()
	return float64(opsTotal.Load()) / time.Since(start).Seconds() / 1e6
}
