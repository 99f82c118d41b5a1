// Command cprserver serves a CPR-enabled FASTER store over TCP with
// periodic automatic commits:
//
//	cprserver -addr :7070 -dir /var/lib/cprdb -autocommit 500ms
//
// Clients (see internal/kvserver.Dial) hold one session per connection; a
// client reconnecting with its session ID learns its recovered CPR point.
// Without -dir the store is memory-backed (durable only within the process).
//
// With -inlog-addr the server also runs a durable ingestion log (segments
// under <dir>/inlog): clients stream operations to that address, every ack
// means the record is fsynced, and an apply pump drains the log into the
// store with an offset watermark persisted per CPR commit — acked traffic
// is replayed exactly once after a crash, and committed-out segments are
// trimmed:
//
//	cprserver -addr :7070 -inlog-addr :7090 -dir /var/lib/cprdb -inlog-fsync batch
//
// With -repl the primary also ships commits and the durable log tail to
// replicas; a replica runs with -replica-of and serves prefix-consistent
// reads (writes are redirected to the primary). SIGHUP promotes a replica to
// primary at its last installed commit:
//
//	cprserver -addr :7070 -repl :7071 -dir /var/lib/cprdb
//	cprserver -addr :7080 -replica-of primary-host:7071
//
// The serving stack itself is internal/node.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	var c node.Config
	flag.StringVar(&c.Addr, "addr", "127.0.0.1:7070", "listen address")
	flag.StringVar(&c.Dir, "dir", "", "database directory (empty = in-memory)")
	flag.IntVar(&c.Shards, "shards", 1, "store partitions, each an independent CPR domain (commits stay coordinated)")
	flag.DurationVar(&c.AutoCommit, "autocommit", 500*time.Millisecond, "automatic log-only commit cadence (0 = off)")
	flag.BoolVar(&c.InstantRestore, "instant-restore", false, "recover in instant-restore mode: serve immediately on the last commit's index and warm hash buckets on demand (see fasterctl restore-status)")
	flag.DurationVar(&c.IdleTimeout, "idle-timeout", 0, "reap connections idle past this long, releasing their FASTER sessions (0 = off)")
	flag.StringVar(&c.DebugAddr, "debug", "", "debug HTTP listen address serving /metrics, /timeline and /debug/pprof (empty = off)")
	flag.StringVar(&c.ReplAddr, "repl", "", "replication listen address; replicas connect here (empty = off)")
	flag.StringVar(&c.ReplicaOf, "replica-of", "", "run as a read replica of this primary replication address")

	flag.Float64Var(&c.FaultRate, "fault-rate", 0, "injected transient I/O fault probability per op, in [0,1] (testing)")
	flag.Float64Var(&c.FaultTornRate, "fault-torn-rate", 0, "injected torn-write probability per artifact write, in [0,1] (testing)")
	flag.Uint64Var(&c.FaultSeed, "fault-seed", 1, "seed for the deterministic fault schedule")
	flag.DurationVar(&c.FaultLatency, "fault-latency", 0, "injected latency spike duration; applied at -fault-rate (testing)")

	flag.IntVar(&c.FlightRec, "flightrec", obs.DefaultFlightCapacity, "flight-recorder ring capacity per CPU (events; 0 = off)")
	flag.IntVar(&c.ReqTrace, "reqtrace", 64, "slow-request trace retention (span trees; 0 = off)")

	flag.DurationVar(&c.HealthInterval, "health-interval", time.Second, "health engine sampling interval; detectors fire after ~3 bad samples (0 = off)")
	flag.DurationVar(&c.SLODurLag, "slo-durlag", 0, "durability-lag SLO objective: windowed p99 session lag above this burns the SLO and degrades health (0 = off)")

	flag.IntVar(&c.CoalesceBytes, "coalesce-bytes", node.DefaultCoalesceBytes, "per-connection reply coalescing: flush past this many buffered bytes")
	flag.IntVar(&c.CoalesceOps, "coalesce-ops", node.DefaultCoalesceOps, "per-connection reply coalescing: flush past this many buffered replies")

	flag.StringVar(&c.InlogAddr, "inlog-addr", "", "ingestion-log listen address; enables the durable ingest pipeline (empty = off)")
	flag.StringVar(&c.InlogFsync, "inlog-fsync", "batch", "ingest fsync policy: always | batch | manual")
	flag.Int64Var(&c.InlogSegmentBytes, "inlog-segment-bytes", 1<<20, "ingest log segment roll threshold in bytes")
	flag.IntVar(&c.InlogBatchRecords, "inlog-batch-records", 64, "ingest batch fsync: sync after this many appends")
	flag.DurationVar(&c.InlogBatchInterval, "inlog-batch-interval", 2*time.Millisecond, "ingest batch fsync: background flush cadence (0 = default, negative = off)")
	flag.Parse()

	n, err := node.Open(c)
	if err != nil {
		log.Fatal(err)
	}
	if c.ReplicaOf != "" {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGHUP)
		go func() {
			for range sig {
				if err := n.Promote(); err != nil {
					log.Printf("promote: %v", err)
				}
			}
		}()
	}
	if err := n.Wait(); err != nil {
		log.Fatal(err)
	}
}
