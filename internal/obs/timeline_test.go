package obs

import "testing"

// phaseEvent builds a FlightPhase event for DeriveTimeline inputs.
func phaseEvent(at int64, shard int, token string, from, to uint64) FlightEvent {
	return FlightEvent{AtNanos: at, Kind: FlightPhase, Shard: shard, Token: token,
		Version: 1, Arg1: from, Arg2: to}
}

func TestTimelineSpans(t *testing.T) {
	tl := DeriveTimeline([]FlightEvent{
		phaseEvent(10, 0, "tok", 0, 1),
		phaseEvent(25, 0, "tok", 1, 2),
		phaseEvent(40, 0, "tok", 2, 0),
	}, 0, 100)
	if len(tl.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(tl.Spans))
	}
	for i, want := range []string{"prepare", "in-progress", "rest"} {
		sp := tl.Spans[i]
		if sp.Phase != want {
			t.Fatalf("span %d phase = %q, want %q", i, sp.Phase, want)
		}
		if sp.DurationNanos != sp.EndNanos-sp.StartNanos || sp.DurationNanos < 0 {
			t.Fatalf("span %d inconsistent: %+v", i, sp)
		}
		if i > 0 && sp.StartNanos != tl.Spans[i-1].EndNanos {
			t.Fatalf("span %d not contiguous with predecessor", i)
		}
	}
	if tl.Spans[0].Open || tl.Spans[1].Open {
		t.Fatal("closed span marked open")
	}
	if last := tl.Spans[2]; !last.Open || last.EndNanos != 100 {
		t.Fatalf("last span = %+v, want open until the snapshot instant", last)
	}
}

// TestTimelineChainsPerShard interleaves the transitions of one commit on
// four shards: every span must be closed by its own shard's next transition,
// never by another shard's.
func TestTimelineChainsPerShard(t *testing.T) {
	const shards = 4
	var evs []FlightEvent
	walk := [][2]uint64{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}
	for step, tr := range walk {
		for sh := 0; sh < shards; sh++ {
			evs = append(evs, phaseEvent(int64(100*step+sh), sh, "ckpt-000001", tr[0], tr[1]))
		}
	}
	tl := DeriveTimeline(evs, 0, 1000)
	if len(tl.Spans) != shards*len(walk) {
		t.Fatalf("spans = %d, want %d", len(tl.Spans), shards*len(walk))
	}
	open := 0
	for _, sp := range tl.Spans {
		if sp.Open {
			open++
			if sp.Phase != "rest" {
				t.Fatalf("open span %+v, want only trailing rest spans", sp)
			}
			continue
		}
		// Shard sh's transitions sit at 100*step+sh, so a span closed by
		// its own chain lasts exactly 100ns.
		if sp.DurationNanos != 100 {
			t.Fatalf("shard %d %s span lasted %dns, want 100 (closed by another shard?)",
				sp.Shard, sp.Phase, sp.DurationNanos)
		}
	}
	if open != shards {
		t.Fatalf("open spans = %d, want one trailing rest span per shard", open)
	}
}

// TestTimelineChainOrder: transitions of one chain that tie on the clock
// (and so may merge out of order across rings) still form the state-machine
// walk.
func TestTimelineChainOrder(t *testing.T) {
	tl := DeriveTimeline([]FlightEvent{
		phaseEvent(10, 0, "tok", 1, 2), // tie, merged ahead of its predecessor
		phaseEvent(10, 0, "tok", 0, 1),
		phaseEvent(30, 0, "tok", 2, 0),
	}, 0, 50)
	var got []string
	for _, sp := range tl.Spans {
		got = append(got, sp.Phase)
	}
	if len(got) != 3 || got[0] != "prepare" || got[1] != "in-progress" || got[2] != "rest" {
		t.Fatalf("span phases = %v, want [prepare in-progress rest]", got)
	}
}

// TestTimelineEventKinds: the timeline keeps the state-machine events —
// transitions, session crossings and epoch drains — in flight order, and
// nothing else.
func TestTimelineEventKinds(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Emit(FlightCommitStart, 0, 1, "tok", "", 0, 0)
	f.Emit(FlightPhase, 0, 1, "tok", "", 0, 1)
	f.Emit(FlightAckPrepare, 0, 1, "tok", "s1", 10, 0)
	f.Emit(FlightFlush, 0, 0, "", "", 4096, 7)
	f.Emit(FlightPhase, 0, 1, "tok", "", 1, 2)
	f.Emit(FlightDemarcate, 0, 1, "tok", "s1", 12, 0)
	f.Emit(FlightEpochDrain, 0, 0, "", "", 3, 3000)
	f.Emit(FlightDrop, 0, 1, "tok", "s1", 12, 0)
	tl := f.Timeline()
	want := []FlightKind{FlightPhase, FlightAckPrepare, FlightPhase, FlightDemarcate, FlightEpochDrain, FlightDrop}
	if len(tl.Events) != len(want) {
		t.Fatalf("events = %d, want %d: %+v", len(tl.Events), len(want), tl.Events)
	}
	for i, e := range tl.Events {
		if e.Kind != want[i] {
			t.Fatalf("event %d kind = %v, want %v", i, e.Kind, want[i])
		}
		if i > 0 && e.AtNanos < tl.Events[i-1].AtNanos {
			t.Fatalf("timestamps decrease at %d", i)
		}
	}
	if e := tl.Events[1]; e.Session != "s1" || e.Arg1 != 10 {
		t.Fatalf("bad ack-prepare event: %+v", e)
	}
	if e := tl.Events[4]; e.Arg2 != 3000 {
		t.Fatalf("bad drain event: %+v", e)
	}
}

// TestTimelineDropped: events lost to ring wraparound are counted in the
// timeline.
func TestTimelineDropped(t *testing.T) {
	f := NewFlightRecorder(64)
	for i := 0; i < 2*64*numShards; i++ {
		f.Emit(FlightPhase, 0, uint64(i), "tok", "", 0, 1)
	}
	_, dropped := f.Events()
	if dropped == 0 {
		t.Fatal("recorder dropped nothing; the test needs wraparound")
	}
	if tl := f.Timeline(); tl.Dropped != dropped {
		t.Fatalf("timeline dropped = %d, want %d", tl.Dropped, dropped)
	}
}

func TestNilRecorderTimeline(t *testing.T) {
	var f *FlightRecorder
	if tl := f.Timeline(); len(tl.Events) != 0 || len(tl.Spans) != 0 || tl.Dropped != 0 {
		t.Fatal("nil recorder returned a timeline")
	}
}
