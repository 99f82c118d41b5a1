package obs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/faster"
	"repro/internal/obs"
)

// TestTracingOverheadGuard is the regression guard for request tracing's
// always-on contract, mirroring TestFlightOverheadGuard: driving the full
// per-request trace lifecycle (Begin, exec + durwait-shaped spans, Finish)
// around store upserts must stay within 10% of the identical loop with a nil
// tracer. The lifecycle is pooled and allocation-free; if someone adds
// allocation, locking or formatting to the hot path, this catches it.
func TestTracingOverheadGuard(t *testing.T) {
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

	side := func(newTracer func() *obs.RequestTracer) guardSide {
		return func() (func(int), func()) {
			tr := newTracer()
			store, err := faster.Open(faster.Config{Metrics: obs.NewNop()})
			if err != nil {
				t.Fatal(err)
			}
			sess := store.StartSession()
			for _, k := range keybuf {
				if st := sess.Upsert(k, val); st != faster.Ok {
					t.Fatalf("warmup upsert: %v", st)
				}
			}
			var at obs.ActiveTrace
			op := func(i int) {
				start := time.Now().UnixNano()
				tr.Begin(&at, obs.TraceContext{}, "SET", "guard")
				if st := sess.Upsert(keybuf[i%keys], val); st != faster.Ok {
					t.Fatalf("upsert: %v", st)
				}
				end := time.Now().UnixNano()
				at.Span(obs.SpanExec, start, end, uint64(i), 0, "")
				tr.Finish(&at, start, end)
			}
			return op, func() { sess.StopSession(); store.Close() }
		}
	}

	offRate, onRate := bestRates(trials,
		side(func() *obs.RequestTracer { return nil }),
		side(func() *obs.RequestTracer { return obs.NewRequestTracer(obs.DefaultTraceReservoir) }))
	t.Logf("traced upsert throughput: tracer off %.0f ops/s, on %.0f ops/s (%.1f%%)",
		offRate, onRate, 100*onRate/offRate)
	if onRate < 0.90*offRate {
		t.Fatalf("request tracing overhead exceeds 10%%: on %.0f ops/s vs off baseline %.0f ops/s",
			onRate, offRate)
	}
}
