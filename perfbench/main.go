// Command perfbench is the repository benchmark. It runs one workload for a
// fixed time, checks the program's outputs, and prints one JSON result line:
//
//	perfbench --workload embedded-zipf --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs an
// untraced and a traced window and reports the per-layer metrics, each
// measured from outside by timing calls into the layer's public API. See
// README.md for the workloads and metric definitions; run.sh builds the
// binaries and is the entry point named in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

var (
	stderr  io.Writer = os.Stderr
	selfPID           = os.Getpid()
)

// heldoutSalt separates the held-out input stream from the development
// stream: --heldout with seed n never reproduces the inputs of any plain seed
// (short of a 64-bit collision), so a claim tuned on plain seeds can be
// checked on inputs it has never seen.
const heldoutSalt = 0x6865_6c64_6f75_7421

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	heldout   bool
	inputSeed uint64
	keys      uint64 // embedded key count (tests shrink it)
	tcpKeys   uint64
	skew      uint64 // added to every expected CPR point (tests only)
	bin       string // directory holding the built cprserver
	root      string // source checkout, for provenance
}

func (o *options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks collects output-check failures (wrong results: failed ops) and
// workload-shape violations (the run no longer stresses its layer). Either
// makes the run incorrect.
type checks struct {
	mu       sync.Mutex
	failed   uint64
	invalid  int
	messages []string
}

func (c *checks) failf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if len(c.messages) < 20 {
		c.messages = append(c.messages, "check failed: "+fmt.Sprintf(format, args...))
	}
}

func (c *checks) invalidf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalid++
	c.messages = append(c.messages, "run invalid: "+fmt.Sprintf(format, args...))
}

func (c *checks) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed == 0 && c.invalid == 0
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "echo-server" {
		echoServerMain()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "embedded-zipf | embedded-cold | tcp-mixed")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	fs.BoolVar(&o.heldout, "heldout", false, "draw inputs from the held-out stream of --seed (for checking claims)")
	fs.Uint64Var(&o.keys, "keys", 1<<20, "embedded workloads: keys loaded")
	fs.Uint64Var(&o.tcpKeys, "tcp-keys", 200000, "tcp-mixed: keys loaded")
	fs.Uint64Var(&o.skew, "skew-expected-cpr", 0, "add this to every expected CPR point (a deliberately wrong expectation, for tests)")
	fs.StringVar(&o.bin, "bin", ".bench_build", "directory holding the cprserver binary")
	fs.StringVar(&o.root, "root", ".", "source checkout (for provenance)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	o.inputSeed = uint64(o.seed)
	if o.heldout {
		o.inputSeed ^= heldoutSalt
	}

	prov := collectProvenance(o.root)
	prov.Workload, prov.Seed, prov.Heldout, prov.InputSeed = o.workload, o.seed, o.heldout, o.inputSeed
	prov.Seconds, prov.Trace = o.seconds, trace
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov})
	fmt.Fprintln(stdout, string(pj))

	chk := &checks{}
	var (
		m         map[string]metric
		attempted uint64
		err       error
	)
	switch o.workload {
	case "embedded-zipf", "embedded-cold":
		m, attempted, err = runEmbedded(o, chk)
	case "tcp-mixed":
		m, attempted, err = runTCP(o, chk)
	default:
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, msg := range chk.messages {
		fmt.Fprintln(stderr, "perfbench:", msg)
	}
	res := result{Correct: chk.ok(), Attempted: attempted, Failed: chk.failed, Metrics: m}
	if res.Attempted < res.Failed {
		res.Attempted = res.Failed
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
