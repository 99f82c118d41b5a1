package obs_test

import (
	"fmt"
	"testing"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestFlightOverheadGuard is the regression guard for the flight recorder's
// "always-on" contract: upsert throughput on a store recording flight events
// — including the commit-lifecycle events produced by periodic commits — must
// stay within 10% of the identical store with recording disabled (nil
// recorder). The hot paths only ever pay a nil check plus, on commit/flush
// boundaries, one lock-free ring append; if someone adds locking, allocation
// or formatting to Emit or its call sites, this test catches it.
func TestFlightOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing guard is not meaningful under the race detector")
	}

	const (
		keys      = 128
		commitEvg = 25_000 // ops between commits: lifecycle events flow too
		trials    = 5
	)
	keybuf := make([][]byte, keys)
	for i := range keybuf {
		keybuf[i] = []byte(fmt.Sprintf("key-%04d", i))
	}
	val := []byte("value-00000000")

	side := func(newFR func() *obs.FlightRecorder) guardSide {
		return func() (func(int), func()) {
			store, err := faster.Open(faster.Config{Metrics: obs.NewNop(), Flight: newFR()})
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
				if i%commitEvg == commitEvg-1 {
					token, err := store.Commit(faster.CommitOptions{})
					if err != nil {
						t.Fatalf("commit: %v", err)
					}
					for {
						if res, ok := store.TryResult(token); ok {
							if res.Err != nil {
								t.Fatalf("commit result: %v", res.Err)
							}
							break
						}
						sess.Refresh()
					}
				}
			}
			return op, func() { sess.StopSession(); store.Close() }
		}
	}

	offRate, onRate := bestRates(trials,
		side(func() *obs.FlightRecorder { return nil }),
		side(func() *obs.FlightRecorder { return obs.NewFlightRecorder(obs.DefaultFlightCapacity) }))
	t.Logf("upsert throughput with commits: recorder off %.0f ops/s, on %.0f ops/s (%.1f%%)",
		offRate, onRate, 100*onRate/offRate)
	if onRate < 0.90*offRate {
		t.Fatalf("flight recorder overhead exceeds 10%%: on %.0f ops/s vs off baseline %.0f ops/s",
			onRate, offRate)
	}
}
