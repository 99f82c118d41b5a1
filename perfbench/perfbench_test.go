package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runBench runs the benchmark in-process and returns its exit code and the
// result line.
func runBench(t *testing.T, args ...string) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(args, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Logf("no result line (exit %d): %q", code, out.String())
	}
	return code, res
}

func TestEmbeddedChecksPass(t *testing.T) {
	for _, tc := range []struct{ workload, keys string }{
		{"embedded-zipf", "65536"},
		{"embedded-cold", "524288"},
	} {
		code, res := runBench(t, "--workload", tc.workload, "--keys", tc.keys, "--seconds", "2", "--seed", "7")
		if code != 0 || !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: exit %d, result %+v", tc.workload, code, res)
		}
		for _, name := range []string{"throughput_ops", "latency_p99_us", "commit_p50_ms", "recover_s", "setup_s"} {
			if v := res.Metrics[name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", tc.workload, name, v)
			}
		}
	}
}

// An off-by-one expected CPR point must fail the run: the final commit's
// CommitResult.Serials and the recovered CPR points no longer match.
func TestWrongCPRExpectationFails(t *testing.T) {
	code, res := runBench(t, "--workload", "embedded-zipf", "--keys", "65536", "--seconds", "1", "--skew-expected-cpr", "1")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, result %+v; want a failed run", code, res)
	}
}

// A cold workload whose keys all fit in memory no longer stresses device
// reads; the shape guard must invalidate it.
func TestShapeGuardInvalidatesRun(t *testing.T) {
	code, res := runBench(t, "--workload", "embedded-cold", "--keys", "4096", "--seconds", "1")
	if code == 0 || res.Correct {
		t.Fatalf("exit %d, result %+v; want an invalid run", code, res)
	}
	if res.Failed != 0 {
		t.Fatalf("failed = %d; a shape violation is not a failed op", res.Failed)
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	code, res := runBench(t, "--workload", "embedded-cold", "--keys", "524288", "--seconds", "4", "--trace", "1")
	if code != 0 || !res.Correct {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	for _, l := range perLayer {
		m, ok := res.Metrics[l.name]
		if !ok || m.Unit != l.unit {
			t.Errorf("%s missing or wrong unit: %+v", l.name, m)
		}
	}
	for _, name := range []string{"faster.read_ns", "faster.pending_ratio", "storage.read_us", "commit.wait_flush_ms", "hashfn.hash64_ns", "net.echo_rtt_us"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if _, ok := res.Metrics["throughput_ops"]; ok {
		t.Error("a traced run reported an end-to-end metric")
	}
}

// buildServer builds cprserver from the enclosing repository.
func buildServer(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "cprserver"), "./cmd/cprserver")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build cprserver: %v\n%s", err, out)
	}
	return dir
}

func TestTCPChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts cprserver")
	}
	bin := buildServer(t)
	code, res := runBench(t, "--workload", "tcp-mixed", "--tcp-keys", "20000", "--seconds", "2", "--bin", bin)
	if code != 0 || !res.Correct || res.Failed != 0 {
		t.Fatalf("exit %d, result %+v", code, res)
	}
	code, res = runBench(t, "--workload", "tcp-mixed", "--tcp-keys", "20000", "--seconds", "1", "--bin", bin, "--skew-expected-cpr", "1")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("skewed CPR expectation: exit %d, result %+v; want a failed run", code, res)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.2f = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	for v := uint64(0); v < 1<<20; v = v*3 + 1 {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("value %d outside its bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestSliceStatistics(t *testing.T) {
	start := time.Unix(0, 0)
	s := newSeries(start, time.Second, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 100*(i+1); j++ {
			s.add(start.Add(time.Duration(i)*time.Second), time.Duration(10*(i+1)))
		}
	}
	full := s.full(start.Add(3 * time.Second))
	if len(full) != 3 {
		t.Fatalf("%d full slices, want 3", len(full))
	}
	if got := sliceRate(full, time.Second, 1); got != 200 {
		t.Errorf("slice rate %v, want 200", got)
	}
	if got := sliceQuantile(full, 0.5); got < 20 || got > 21 {
		t.Errorf("slice median %v, want 20", got)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 5, 5, 5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	// A sample split between two modes lands between them.
	xs := []float64{10, 10, 10, 10, 10, 100, 100, 100, 100, 100, 100}
	if got := median(xs); got <= 10 || got >= 100 {
		t.Errorf("bimodal median %v, want strictly between the modes", got)
	}
}

func TestBucketMedian(t *testing.T) {
	// Cumulative log2 buckets: 10 observations were already in [2, 3]; the
	// window added 100 in [4, 7].
	before := []float64{0, 0, 10}
	after := []float64{0, 0, 10, 110}
	if got := bucketMedian(before, after); got < 4 || got > 8 {
		t.Errorf("median %v, want within [4, 8)", got)
	}
}

func TestEpisodes(t *testing.T) {
	for _, tc := range []struct {
		total, max time.Duration
		n          int
	}{
		{20 * time.Second, 5 * time.Second, 4},
		{10 * time.Second, 2500 * time.Millisecond, 4},
		{time.Second, 5 * time.Second, 1},
		{7 * time.Second, 5 * time.Second, 2},
	} {
		n, each := episodes(tc.total, tc.max)
		if n != tc.n || each*time.Duration(n) != tc.total {
			t.Errorf("episodes(%v, %v) = %d x %v, want %d", tc.total, tc.max, n, each, tc.n)
		}
	}
}

func TestMain(m *testing.M) {
	// The traced runs start this test binary as their echo server.
	if len(os.Args) > 1 && os.Args[1] == "echo-server" {
		echoServerMain()
		return
	}
	stderr = io.Discard
	os.Exit(m.Run())
}
