package obs

import (
	"sort"
	"time"
)

// PhaseSpan is one phase-occupancy interval of a CPR commit on one shard.
type PhaseSpan struct {
	Phase         string `json:"phase"`
	Token         string `json:"token,omitempty"`
	Shard         int    `json:"shard"`
	Version       uint64 `json:"version,omitempty"`
	StartNanos    int64  `json:"start_ns"`
	EndNanos      int64  `json:"end_ns"`
	DurationNanos int64  `json:"duration_ns"`
	// Open marks the last span of its commit's chain — the trailing rest
	// span, or the phase a commit is still in; EndNanos is then the
	// snapshot instant.
	Open bool `json:"open,omitempty"`
}

// Timeline is the CPR phase view of a flight recording: the state-machine
// events (phase transitions, session ack-prepare/demarcate/drop crossings
// and epoch drains) plus the phase spans derived from the transitions.
type Timeline struct {
	Events []FlightEvent `json:"events"`
	Spans  []PhaseSpan   `json:"spans"`
	// Dropped counts events lost to ring wraparound (oldest first).
	Dropped uint64 `json:"dropped,omitempty"`
}

// DeriveTimeline derives the phase timeline from flight events as returned
// by FlightRecorder.Events. Each (shard, token) pair — one commit's state
// machine on one shard — is its own chain: a phase transition opens a span
// that the chain's next transition closes, and the chain's last span stays
// open until nowNanos. Chains never close each other's spans, so the shards
// of a coordinated commit each get their own phase durations.
//
// Within a chain, transitions are ordered by their from-phase code, which
// strictly increases along the state machine (rest, prepare, in-progress,
// wait-pending, wait-flush), so clock ties between per-core rings cannot
// reorder a chain.
func DeriveTimeline(evs []FlightEvent, dropped uint64, nowNanos int64) Timeline {
	type chainKey struct {
		shard int
		token string
	}
	tl := Timeline{Dropped: dropped}
	chains := make(map[chainKey][]FlightEvent)
	var order []chainKey
	for _, e := range evs {
		switch e.Kind {
		case FlightPhase:
			k := chainKey{e.Shard, e.Token}
			if _, ok := chains[k]; !ok {
				order = append(order, k)
			}
			chains[k] = append(chains[k], e)
		case FlightAckPrepare, FlightDemarcate, FlightDrop, FlightEpochDrain:
		default:
			continue
		}
		tl.Events = append(tl.Events, e)
	}
	for _, k := range order {
		chain := chains[k]
		sort.SliceStable(chain, func(i, j int) bool { return chain[i].Arg1 < chain[j].Arg1 })
		for i, e := range chain {
			sp := PhaseSpan{Phase: FlightPhaseName(e.Arg2), Token: e.Token, Shard: e.Shard,
				Version: e.Version, StartNanos: e.AtNanos, EndNanos: nowNanos, Open: true}
			if i+1 < len(chain) {
				sp.EndNanos, sp.Open = chain[i+1].AtNanos, false
			}
			sp.DurationNanos = sp.EndNanos - sp.StartNanos
			tl.Spans = append(tl.Spans, sp)
		}
	}
	return tl
}

// Timeline snapshots the recorder and derives its phase timeline (see
// DeriveTimeline). The nil recorder has an empty timeline.
func (f *FlightRecorder) Timeline() Timeline {
	if f == nil {
		return Timeline{}
	}
	evs, dropped := f.Events()
	return DeriveTimeline(evs, dropped, time.Since(f.start).Nanoseconds())
}
