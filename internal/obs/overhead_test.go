package obs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestMetricsOverheadGuard is the regression guard for the "metrics are nearly
// free" contract: single-threaded upsert throughput on a store with the
// default (enabled) registry must stay within 10% of the same store wired to
// the no-op sink (obs.NewNop()). An enabled counter costs one atomic add on a
// goroutine-affine shard; if someone adds a lock or a map lookup to the hot
// path, this test catches it.
func TestMetricsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard is not meaningful under the race detector")
	}

	const (
		keys   = 128
		trials = 5
	)
	keybuf := make([][]byte, keys)
	for i := range keybuf {
		keybuf[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-00000000")

	// A fresh store per trial whose op upserts over a small key set.
	side := func(newReg func() *obs.Registry) guardSide {
		return func() (func(int), func()) {
			store, err := faster.Open(faster.Config{Metrics: newReg()})
			if err != nil {
				t.Fatal(err)
			}
			sess := store.StartSession()
			for _, k := range keybuf { // warm the index
				if st := sess.Upsert(k, val); st != faster.Ok {
					t.Fatalf("warmup upsert: %v", st)
				}
			}
			op := func(i int) {
				if st := sess.Upsert(keybuf[i%keys], val); st != faster.Ok {
					t.Fatalf("upsert: %v", st)
				}
			}
			return op, func() { sess.StopSession(); store.Close() }
		}
	}

	nopRate, onRate := bestRates(trials, side(obs.NewNop), side(obs.NewRegistry))
	t.Logf("upsert throughput: nop sink %.0f ops/s, metrics enabled %.0f ops/s (%.1f%%)",
		nopRate, onRate, 100*onRate/nopRate)
	if onRate < 0.90*nopRate {
		t.Fatalf("metrics overhead exceeds 10%%: enabled %.0f ops/s vs nop baseline %.0f ops/s",
			onRate, nopRate)
	}
}

// guardTrial is the minimum measured time of each side in one overhead-guard
// trial. A fixed duration, not a fixed op count, keeps trials long enough to
// average out scheduler noise however fast the op path gets.
const guardTrial = 250 * time.Millisecond

// guardChunk is how many ops one side runs before the other side's turn.
const guardChunk = 4096

// guardSide opens a fresh store for one trial and returns its timed op plus
// a cleanup.
type guardSide func() (op func(i int), done func())

// bestRates runs trials trials of a base and an instrumented side and returns
// each side's best ops/s. Within a trial the sides take turns in guardChunk
// runs, alternating which goes first, until each has run for guardTrial, so
// load from elsewhere on the machine falls on both alike; the clock is read
// only between chunks, so the per-op work is op alone. Keeping each side's
// best trial means a one-off stall can only hurt a side, never flatter it.
func bestRates(trials int, base, instrumented guardSide) (baseRate, instRate float64) {
	var best [2]float64
	for t := 0; t < trials; t++ {
		var ops [2]func(int)
		for s, side := range [2]guardSide{base, instrumented} {
			op, done := side()
			defer done()
			ops[s] = op
		}
		var spent [2]time.Duration
		n := 0
		for turn := t; spent[0] < guardTrial || spent[1] < guardTrial; turn++ {
			for j := 0; j < 2; j++ {
				s := (turn + j) % 2
				t0 := time.Now()
				for i := n; i < n+guardChunk; i++ {
					ops[s](i)
				}
				spent[s] += time.Since(t0)
			}
			n += guardChunk
		}
		for s := range best {
			if r := float64(n) / spent[s].Seconds(); r > best[s] {
				best[s] = r
			}
		}
	}
	return best[0], best[1]
}
