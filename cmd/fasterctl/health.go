package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/health"
	"repro/internal/kvserver"
	"repro/internal/node"
	"repro/internal/storage"
)

// healthCmd implements `fasterctl health`: fetch a running server's health
// verdict (the health engine's detector-by-detector state) over the kvserver
// protocol.
//
//	fasterctl health -addr localhost:7070 [-json]
//
// Exit code 0 while healthy, 1 while degraded or unhealthy, 2 on usage or
// transport errors — scriptable as a liveness probe.
func healthCmd(args []string) int {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	addr := fs.String("addr", "", "live server address (kvserver protocol)")
	asJSON := fs.Bool("json", false, "print the raw verdict JSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fasterctl health -addr <server-addr> [-json]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck
	if *addr == "" {
		fs.Usage()
		return 2
	}
	client, err := kvserver.Dial(*addr, "")
	if err != nil {
		log.Print(err)
		return 2
	}
	defer client.Close()
	v, err := client.Health()
	if err != nil {
		log.Print(err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			log.Print(err)
			return 2
		}
	} else {
		printVerdict(v)
	}
	if v.Healthy() {
		return 0
	}
	return 1
}

// printVerdict renders a verdict for humans: the state line, the SLO
// standing, and one line per detector.
func printVerdict(v *health.Verdict) {
	fmt.Printf("state:    %s\n", v.State)
	fmt.Printf("sampled:  %s (%d samples)\n",
		time.Unix(0, v.SampledUnixNanos).Format(time.RFC3339), v.Samples)
	if v.SLO != nil {
		fmt.Printf("slo:      durability-lag p99 %v vs objective %v (%d obs in window)\n",
			time.Duration(v.SLO.WindowP99Nanos), time.Duration(v.SLO.ObjectiveNanos),
			v.SLO.WindowObservations)
	}
	for _, d := range v.Detectors {
		mark := "ok    "
		if d.Firing {
			mark = "FIRING"
			if d.Critical {
				mark = "FIRING (critical)"
			}
		}
		fmt.Printf("  %-24s %s", d.Name, mark)
		if d.Firing {
			fmt.Printf("  since %s", time.Unix(0, d.SinceUnixNanos).Format(time.RFC3339))
			if d.Detail != "" {
				fmt.Printf("\n      %s", d.Detail)
			}
		}
		fmt.Println()
	}
}

// incidentCmd implements `fasterctl incident`: decode an incident bundle the
// health engine captured when a detector fired.
//
//	fasterctl incident -dump <incident-artifact-file> [-json] [-events N]
//	fasterctl incident -dir <checkpoint-dir>            # list bundles
//	fasterctl incident -dir <checkpoint-dir> <name>     # decode one
//	fasterctl -dir <db-dir> incident [name]             # the db's checkpoints
//
// A bundle holds the evidence frozen at the moment of the stall: the full
// metrics snapshot, the flight-recorder timeline, the slowest traces, and
// goroutine + heap profiles.
func incidentCmd(args []string, dbDir string) int {
	fs := flag.NewFlagSet("incident", flag.ExitOnError)
	dumpFile := fs.String("dump", "", "incident artifact file to decode")
	dir := fs.String("dir", "", "checkpoint directory to list/read bundles from")
	asJSON := fs.Bool("json", false, "print the raw bundle JSON")
	events := fs.Int("events", 20, "flight events to print (0 = all)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: fasterctl incident -dump <file> [-json] [-events N]")
		fmt.Fprintln(os.Stderr, "       fasterctl incident -dir <checkpoint-dir> [name]")
		fmt.Fprintln(os.Stderr, "       fasterctl -dir <db-dir> incident [name]")
		fs.PrintDefaults()
	}
	fs.Parse(args) //nolint:errcheck
	if *dir == "" && dbDir != "" {
		*dir = node.CheckpointDir(dbDir)
	}

	var payload []byte
	switch {
	case *dumpFile != "":
		raw, err := os.ReadFile(*dumpFile)
		if err != nil {
			log.Print(err)
			return 2
		}
		// Bundles are written through the storage artifact envelope; accept
		// both framed files and a bare JSON payload.
		payload, err = storage.DecodeArtifact(raw)
		if err != nil {
			payload = raw
		}
	case *dir != "":
		cs, err := storage.NewDirCheckpointStore(*dir)
		if err != nil {
			log.Print(err)
			return 2
		}
		name := fs.Arg(0)
		if name == "" {
			names, err := cs.List()
			if err != nil {
				log.Print(err)
				return 2
			}
			count := 0
			for _, n := range names {
				if strings.HasPrefix(n, "incident-") {
					fmt.Println(n)
					count++
				}
			}
			if count == 0 {
				fmt.Println("(no incident bundles)")
			}
			return 0
		}
		payload, err = storage.ReadArtifactChecked(cs, name)
		if err != nil {
			log.Print(err)
			return 2
		}
	default:
		fs.Usage()
		return 2
	}

	b, err := health.DecodeBundle(payload)
	if err != nil {
		log.Print(err)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			log.Print(err)
			return 2
		}
		return 0
	}
	printBundle(b, *events)
	return 0
}

// printBundle renders a bundle's sections for humans.
func printBundle(b *health.Bundle, maxEvents int) {
	fmt.Printf("incident: %s (seq %d)\n", b.Detector, b.Seq)
	fmt.Printf("captured: %s\n", time.Unix(0, b.CapturedUnixNanos).Format(time.RFC3339Nano))
	if b.Detail != "" {
		fmt.Printf("detail:   %s\n", b.Detail)
	}
	fmt.Printf("verdict:  %s\n", b.Verdict.State)
	for _, d := range b.Verdict.Detectors {
		if d.Firing {
			fmt.Printf("  firing: %s — %s\n", d.Name, d.Detail)
		}
	}

	fmt.Printf("\nmetrics snapshot: %d counters, %d gauges, %d histograms\n",
		len(b.Metrics.Counters), len(b.Metrics.Gauges), len(b.Metrics.Histograms))
	names := make([]string, 0, len(b.Metrics.Gauges))
	for n := range b.Metrics.Gauges {
		if strings.HasPrefix(n, "faster_health_") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %d\n", n, b.Metrics.Gauges[n])
	}

	if b.Flight != nil {
		fmt.Printf("\nflight events: %d recorded", len(b.Flight.Events))
		if b.Flight.Dropped > 0 {
			fmt.Printf(" (%d older dropped)", b.Flight.Dropped)
		}
		fmt.Println()
		evs := b.Flight.Events
		if maxEvents > 0 && len(evs) > maxEvents {
			fmt.Printf("  ... %d earlier events elided (-events 0 for all)\n", len(evs)-maxEvents)
			evs = evs[len(evs)-maxEvents:]
		}
		for _, e := range evs {
			lane := "store  "
			if e.Shard >= 0 {
				lane = fmt.Sprintf("shard %d", e.Shard)
			}
			fmt.Printf("  %14s  %s  %s\n", time.Duration(e.AtNanos), lane, e.Describe())
		}
	} else {
		fmt.Println("\nflight events: none (no flight recorder wired)")
	}

	if b.Traces != nil {
		fmt.Printf("\ntraces: %d slowest retained (threshold %v, %d finished)\n",
			len(b.Traces.Traces), time.Duration(b.Traces.ThresholdNanos), b.Traces.Finished)
	} else {
		fmt.Println("\ntraces: none (no request tracer wired)")
	}

	printProfile("goroutine profile", b.GoroutineProfile)
	printProfile("heap profile", b.HeapProfile)
}

// printProfile prints a profile's size and first line (the totals header).
func printProfile(label, text string) {
	if text == "" {
		fmt.Printf("\n%s: missing\n", label)
		return
	}
	first := text
	if i := strings.IndexByte(first, '\n'); i >= 0 {
		first = first[:i]
	}
	fmt.Printf("\n%s: %d bytes — %s\n", label, len(text), first)
}
