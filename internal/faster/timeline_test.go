package faster

import (
	"fmt"
	"testing"

	"repro/internal/obs"
)

// wantTransitions is the full CPR state machine walk every successful commit
// must record on every shard, in order.
var wantTransitions = [][2]string{
	{"rest", "prepare"},
	{"prepare", "in-progress"},
	{"in-progress", "wait-pending"},
	{"wait-pending", "wait-flush"},
	{"wait-flush", "rest"},
}

// TestCheckpointPhaseTimeline drives a fold-over and a snapshot commit, and a
// fold-over commit on a 4-shard store, and asserts the flight recorder holds
// every shard's state-machine walk exactly once, in order, with the session's
// thread-crossing events, and that the derived phase timeline closes every
// span of a shard's chain except its trailing rest span.
func TestCheckpointPhaseTimeline(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kind   CommitKind
		shards int
	}{
		{"fold-over", FoldOver, 1},
		{"snapshot", Snapshot, 1},
		{"4-shards", FoldOver, 4},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fr := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
			s, err := Open(Config{Shards: tc.shards, IndexBuckets: 1 << 10, Flight: fr})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			sess := s.StartSession()
			defer sess.StopSession()
			for i := 0; i < 100; i++ {
				k := []byte(fmt.Sprintf("key-%03d", i))
				if st := sess.Upsert(k, []byte("v")); st != Ok {
					t.Fatalf("upsert: %v", st)
				}
			}
			kind := tc.kind
			res := driveCommit(t, s, []*Session{sess}, CommitOptions{WithIndex: true, Kind: &kind})

			evs, dropped := fr.Events()
			if dropped != 0 {
				t.Fatalf("flight recorder dropped %d events", dropped)
			}
			type shardLog struct {
				transitions [][2]string
				crossings   map[obs.FlightKind]int
				drains      int
			}
			shards := make([]shardLog, tc.shards)
			for i := range shards {
				shards[i].crossings = map[obs.FlightKind]int{}
			}
			for _, e := range evs {
				if e.Shard < 0 || e.Shard >= tc.shards {
					continue
				}
				sl := &shards[e.Shard]
				switch {
				case e.Kind == obs.FlightEpochDrain:
					sl.drains++
				case e.Token != res.Token:
				case e.Kind == obs.FlightPhase:
					sl.transitions = append(sl.transitions,
						[2]string{obs.FlightPhaseName(e.Arg1), obs.FlightPhaseName(e.Arg2)})
				case e.Kind == obs.FlightAckPrepare || e.Kind == obs.FlightDemarcate:
					if want := sess.ID(); len(want) > obs.FlightSessionBytes {
						want = want[:obs.FlightSessionBytes]
						if e.Session != want {
							t.Fatalf("shard %d %v event for session %q, want %q", e.Shard, e.Kind, e.Session, want)
						}
					}
					sl.crossings[e.Kind]++
				}
			}
			for i, sl := range shards {
				if fmt.Sprint(sl.transitions) != fmt.Sprint(wantTransitions) {
					t.Fatalf("shard %d recorded transitions %v, want %v", i, sl.transitions, wantTransitions)
				}
				if n := sl.crossings[obs.FlightAckPrepare]; n != 1 {
					t.Fatalf("shard %d: ack-prepare events = %d, want 1", i, n)
				}
				if n := sl.crossings[obs.FlightDemarcate]; n != 1 {
					t.Fatalf("shard %d: demarcate events = %d, want 1", i, n)
				}
				if sl.drains == 0 {
					t.Fatalf("shard %d: no epoch-drain events recorded", i)
				}
			}

			tl := fr.Timeline()
			spans := map[int][]obs.PhaseSpan{}
			for _, sp := range tl.Spans {
				if sp.Token == res.Token {
					spans[sp.Shard] = append(spans[sp.Shard], sp)
				}
			}
			for i := 0; i < tc.shards; i++ {
				chain := spans[i]
				if len(chain) != len(wantTransitions) {
					t.Fatalf("shard %d: %d spans, want %d", i, len(chain), len(wantTransitions))
				}
				for j, sp := range chain[:len(chain)-1] {
					if sp.Open || sp.Phase != wantTransitions[j][1] {
						t.Fatalf("shard %d span %d = %+v, want closed %s span", i, j, sp, wantTransitions[j][1])
					}
				}
				if last := chain[len(chain)-1]; !last.Open || last.Phase != "rest" {
					t.Fatalf("shard %d trailing span = %+v, want open rest span", i, last)
				}
			}
		})
	}
}
