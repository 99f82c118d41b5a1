// Command fasterctl operates a CPR-enabled FASTER store persisted on real
// files, demonstrating durability across process restarts:
//
//	fasterctl -dir /tmp/db set mykey myvalue
//	fasterctl -dir /tmp/db get mykey
//	fasterctl -dir /tmp/db bulkload 100000
//	fasterctl -dir /tmp/db stats
//	fasterctl -dir /tmp/db metrics
//	fasterctl repl-status localhost:7070
//	fasterctl restore-status localhost:7070
//	fasterctl flight -addr localhost:7070 ckpt-000042
//	fasterctl flight -dump /tmp/db/checkpoints/flight-panic
//	fasterctl pipeload -addr localhost:7070 -n 100000 -depth 64
//	fasterctl inlog -dir /tmp/db
//	fasterctl health -addr localhost:7070
//	fasterctl -dir /tmp/db incident
//	fasterctl benchdiff results/BENCH_tput.json /tmp/BENCH_tput.json
//
// Every mutating invocation recovers the store from -dir (if a commit
// exists), applies the operation, and takes a fresh CPR commit before
// exiting. repl-status instead dials a running cprserver and reports its
// replication role and lag.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	cpr "repro"
	"repro/internal/kvserver"
	"repro/internal/node"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	shards := flag.Int("shards", 1, "store partitions; must match the directory's existing layout")
	flag.Parse()
	if flag.NArg() >= 1 && flag.Arg(0) == "repl-status" {
		replStatus(flag.Args())
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "restore-status" {
		restoreStatusCmd(flag.Args())
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "flight" {
		flightCmd(flag.Args()[1:])
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "trace" {
		traceCmd(flag.Args()[1:])
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "pipeload" {
		pipeloadCmd(flag.Args()[1:])
		return
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "inlog" {
		os.Exit(inlogCmd(flag.Args()[1:]))
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "health" {
		os.Exit(healthCmd(flag.Args()[1:]))
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "incident" {
		os.Exit(incidentCmd(flag.Args()[1:], *dir))
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "benchdiff" {
		os.Exit(benchdiffCmd(flag.Args()[1:]))
	}
	if flag.NArg() >= 1 && flag.Arg(0) == "verify" {
		// Offline integrity walk — never opens the store, so it is safe to
		// run against a directory another process is serving from.
		ckDir := node.CheckpointDir(*dir)
		if flag.NArg() >= 2 {
			ckDir = flag.Arg(1)
		} else if *dir == "" {
			fmt.Fprintln(os.Stderr, "usage: fasterctl -dir <dir> verify | fasterctl verify <checkpoint-dir>")
			os.Exit(2)
		}
		os.Exit(verifyCheckpoints(ckDir))
	}
	if *dir == "" || flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: fasterctl -dir <dir> [-shards n] <set|get|del|rmw|bulkload|stats|metrics [hist]|verify> [args]")
		fmt.Fprintln(os.Stderr, "       fasterctl repl-status <server-addr>")
		fmt.Fprintln(os.Stderr, "       fasterctl restore-status <server-addr>")
		fmt.Fprintln(os.Stderr, "       fasterctl verify <checkpoint-dir>")
		fmt.Fprintln(os.Stderr, "       fasterctl flight [-addr <server-addr> | -dump <file>] [token]")
		fmt.Fprintln(os.Stderr, "       fasterctl trace -addr <server-addr> [-slowest N] [-json]")
		fmt.Fprintln(os.Stderr, "       fasterctl pipeload -addr <server-addr> [-n ops] [-depth d]")
		fmt.Fprintln(os.Stderr, "       fasterctl inlog [-dir <db-dir>] [-segments <seg-dir>] [-checkpoints <ck-dir>]")
		fmt.Fprintln(os.Stderr, "       fasterctl health -addr <server-addr> [-json]")
		fmt.Fprintln(os.Stderr, "       fasterctl [-dir <db-dir>] incident [-dump <file> | -dir <checkpoint-dir>] [name]")
		fmt.Fprintln(os.Stderr, "       fasterctl benchdiff [-threshold pct] <old.json> <new.json>")
		os.Exit(2)
	}
	cfg := cpr.StoreConfig{Shards: *shards, Flight: cpr.NewFlightRecorder(obs.DefaultFlightCapacity)}
	if err := node.DirStorage(&cfg, *dir); err != nil {
		log.Fatal(err)
	}
	store, err := node.OpenStore(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	sess := store.StartSession()
	defer sess.StopSession()

	args := flag.Args()
	mutated := false
	switch args[0] {
	case "set":
		need(args, 3)
		if st := sess.Upsert([]byte(args[1]), []byte(args[2])); st != cpr.Ok {
			log.Fatalf("set: %v", st)
		}
		mutated = true
	case "get":
		need(args, 2)
		val, st := sess.Read([]byte(args[1]), nil)
		if st == cpr.Pending {
			sess.CompletePending(true)
			val, st = sess.Read([]byte(args[1]), nil)
		}
		if st != cpr.Ok {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\n", val)
	case "del":
		need(args, 2)
		sess.Delete([]byte(args[1]))
		mutated = true
	case "rmw":
		need(args, 3)
		n, err := strconv.ParseUint(args[2], 10, 64)
		if err != nil {
			log.Fatalf("rmw delta: %v", err)
		}
		var d [8]byte
		for i := 0; i < 8; i++ {
			d[i] = byte(n >> (8 * i))
		}
		if st := sess.RMW([]byte(args[1]), d[:]); st == cpr.Pending {
			sess.CompletePending(true)
		}
		mutated = true
	case "bulkload":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		if err != nil {
			log.Fatalf("bulkload count: %v", err)
		}
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key-%08d", i))
			v := []byte(fmt.Sprintf("val-%08d", i))
			if st := sess.Upsert(k, v); st == cpr.Pending {
				sess.CompletePending(true)
			}
		}
		fmt.Printf("loaded %d keys\n", n)
		mutated = true
	case "stats":
		fmt.Printf("version:       %d\n", store.Version())
		fmt.Printf("phase:         %v\n", store.Phase())
		if n := store.NumShards(); n > 1 {
			fmt.Printf("shards:        %d\n", n)
			for i := 0; i < n; i++ {
				lg := store.ShardLog(i)
				fmt.Printf("shard %d: version %d phase %v tail %d durable %d in-memory [%d, %d)\n",
					i, store.ShardVersion(i), store.ShardPhase(i),
					lg.Tail(), lg.Durable(), lg.Head(), lg.Tail())
			}
		} else {
			lg := store.Log()
			fmt.Printf("log tail:      %d bytes\n", lg.Tail())
			fmt.Printf("log durable:   %d bytes\n", lg.Durable())
			fmt.Printf("log in-memory: [%d, %d)\n", lg.Head(), lg.Tail())
		}
	case "metrics":
		// Drive one log-only commit so the output includes a live phase
		// timeline for this store, then dump the registry and the timeline
		// derived from the flight recorder.
		token, err := store.Commit(cpr.CommitOptions{})
		if err != nil {
			log.Fatal(err)
		}
		for {
			if res, ok := store.TryResult(token); ok {
				if res.Err != nil {
					log.Fatal(res.Err)
				}
				break
			}
			sess.Refresh()
		}
		snap := store.Metrics().Snapshot()
		if len(args) >= 2 && args[1] == "hist" {
			// Human-readable tail view: one row per histogram with
			// percentile columns, instead of the JSON dump.
			printHistTable(snap)
			return
		}
		out := struct {
			Metrics  cpr.MetricsSnapshot `json:"metrics"`
			Timeline cpr.PhaseTimeline   `json:"timeline"`
		}{
			Metrics:  snap,
			Timeline: store.Flight().Timeline(),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown command %q", args[0])
	}

	if mutated {
		token, err := store.Commit(cpr.CommitOptions{WithIndex: true})
		if err != nil {
			log.Fatal(err)
		}
		for {
			if res, ok := store.TryResult(token); ok {
				if res.Err != nil {
					log.Fatal(res.Err)
				}
				fmt.Printf("committed (%s), session CPR point %d\n", token, res.Serials[sess.ID()])
				return
			}
			sess.Refresh()
		}
	}
}

// pipeloadCmd drives a pipelined write load at a running cprserver (protocol
// v3 BATCH frames; sequential calls against an older server) and reports the
// achieved throughput plus the server's pipelining metrics, so the effect of
// a chosen -depth is visible end to end.
func pipeloadCmd(args []string) {
	fs := flag.NewFlagSet("pipeload", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "server address")
	n := fs.Int("n", 100_000, "total blind writes to send")
	depth := fs.Int("depth", 64, "pipeline depth (ops per BATCH frame; 1 = synchronous)")
	fs.Parse(args) //nolint:errcheck
	if *depth < 1 {
		*depth = 1
	}
	c, err := kvserver.Dial(*addr, "")
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if c.Proto() < kvserver.ProtoV3 {
		log.Printf("server negotiated proto v%d (< v3): pipelining degrades to sequential calls", c.Proto())
	}
	p := c.Pipeline()
	var kb, vb [8]byte
	rng := uint64(1)
	start := time.Now()
	for sent := 0; sent < *n; {
		batch := *depth
		if rem := *n - sent; batch > rem {
			batch = rem
		}
		for i := 0; i < batch; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			binary.LittleEndian.PutUint64(kb[:], rng)
			binary.LittleEndian.PutUint64(vb[:], ^rng)
			if *depth == 1 {
				if _, err := c.Set(kb[:], vb[:]); err != nil {
					log.Fatal(err)
				}
			} else {
				p.Set(kb[:], vb[:])
			}
		}
		if *depth > 1 {
			if _, err := p.Flush(); err != nil {
				log.Fatal(err)
			}
		}
		sent += batch
	}
	elapsed := time.Since(start)
	fmt.Printf("pipelined %d sets at depth %d in %v (%.0f ops/sec, proto v%d)\n",
		*n, *depth, elapsed.Round(time.Millisecond),
		float64(*n)/elapsed.Seconds(), c.Proto())
	snap, err := c.Stats()
	if err != nil {
		return // older server without OpStats support for this view
	}
	if h, ok := snap.Metrics.Histograms["faster_batch_depth"]; ok && h.Count > 0 {
		fmt.Printf("server batch depth: p50 %d p99 %d ops over %d batches\n",
			h.P50Nanos, h.P99Nanos, snap.Metrics.Counters["faster_net_batches_total"])
	}
	if fl := snap.Metrics.Counters["faster_net_coalesced_flushes_total"]; fl > 0 {
		fmt.Printf("server write coalescing: %d replies over %d flushes (%.1f replies/syscall)\n",
			snap.Metrics.Counters["faster_net_coalesced_replies_total"], fl,
			float64(snap.Metrics.Counters["faster_net_coalesced_replies_total"])/float64(fl))
	}
}

func need(args []string, n int) {
	if len(args) < n {
		log.Fatalf("%s: expected %d arguments", args[0], n-1)
	}
}

// verifyCheckpoints walks every artifact in a checkpoint directory offline,
// checking each checksum envelope, and prints a per-commit verdict. Returns
// the process exit code: 0 when every commit verifies, 1 when any artifact
// is corrupt or a commit references a missing artifact.
func verifyCheckpoints(dir string) int {
	cs, err := cpr.NewDirCheckpointStore(dir)
	if err != nil {
		log.Print(err)
		return 1
	}
	names, err := cs.List()
	if err != nil {
		log.Print(err)
		return 1
	}
	if len(names) == 0 {
		fmt.Printf("%s: no artifacts\n", dir)
		return 0
	}

	// Verify every artifact's envelope, grouping verdicts by commit token.
	// Artifact names look like "[shardN/]<kind>-<token>" plus the pointer
	// artifacts "latest"/"cpr-latest" (token "-" groups pointers).
	badByToken := make(map[string][]string)
	okCount, badCount := 0, 0
	tokenOf := func(name string) string {
		base := name
		if i := strings.LastIndex(base, "/"); i >= 0 {
			base = base[i+1:]
		}
		for _, kind := range []string{"meta-", "index-", "snapshot-", "pagecrc-", "cpr-manifest-"} {
			if strings.HasPrefix(base, kind) {
				return base[len(kind):]
			}
		}
		return "-"
	}
	tokens := make(map[string]bool)
	for _, name := range names {
		tokens[tokenOf(name)] = true
		if err := cpr.VerifyArtifact(cs, name); err != nil {
			badCount++
			badByToken[tokenOf(name)] = append(badByToken[tokenOf(name)], fmt.Sprintf("%s: %v", name, err))
		} else {
			okCount++
		}
	}

	sorted := make([]string, 0, len(tokens))
	for tok := range tokens {
		sorted = append(sorted, tok)
	}
	sort.Strings(sorted)
	corrupt := 0
	for _, tok := range sorted {
		label := "commit " + tok
		if tok == "-" {
			label = "pointers"
		}
		if bad := badByToken[tok]; len(bad) > 0 {
			corrupt++
			fmt.Printf("%-22s CORRUPT\n", label)
			for _, line := range bad {
				fmt.Printf("    %s\n", line)
			}
		} else {
			fmt.Printf("%-22s OK\n", label)
		}
	}
	fmt.Printf("%d artifacts verified, %d corrupt, %d commit(s) affected\n",
		okCount, badCount, corrupt)
	if corrupt > 0 {
		return 1
	}
	return 0
}

// replStatus dials a running server and reports its replication role and,
// on a replica, how far it trails the primary.
func replStatus(args []string) {
	need(args, 2)
	client, err := kvserver.Dial(args[1], "")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	snap, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	if snap.Repl == nil {
		fmt.Println("role:            standalone (replication not configured)")
		fmt.Printf("version:         %d\n", snap.Version)
		return
	}
	r := snap.Repl
	fmt.Printf("role:            %s\n", r.Role)
	if r.Upstream != "" {
		fmt.Printf("upstream:        %s\n", r.Upstream)
	}
	if r.Role == "primary" || r.Replicas > 0 {
		fmt.Printf("replicas:        %d\n", r.Replicas)
	}
	fmt.Printf("applied version: %d\n", r.AppliedVersion)
	fmt.Printf("versions behind: %d\n", r.VersionsBehind)
	fmt.Printf("bytes behind:    %d\n", r.BytesBehind)
}
