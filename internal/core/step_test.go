package core

import (
	"context"
	"math"
	"testing"
	"time"

	"redundancy/internal/sim"
)

// countingClock is a Clock whose reading advances 1ms at every read, and
// which counts its reads.
type countingClock struct {
	at    time.Time
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	c.at = c.at.Add(time.Millisecond)
	return c.at
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// TestFrameClockReadsOnePerCompletion: a live call over starters reads
// its frame's clock once at its start and once in each copy's Complete,
// whose instant its event carries, and its wait loop reads none for a
// completion. A one-copy started read so reads the clock twice, and a
// two-copy one whose copies both complete (each inside its Start) three
// times. Latency ends at the deciding completion's instant: the second
// reading, 1ms after the start's.
func TestFrameClockReadsOnePerCompletion(t *testing.T) {
	for _, tc := range []struct {
		copies, reads int
	}{{1, 2}, {2, 3}} {
		g := NewStrategyKeyedGroup[int, int](Fixed{Copies: tc.copies})
		for _, name := range []string{"a", "b"} {
			g.AddStarter(name, nil, &echoStarter{})
		}
		st := g.state.Load()
		p, err := g.plan(st, nil, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		picked := make([]Handle[int, int], p.k)
		g.pickInto(st, p.sel, picked)
		ctx := context.Background()
		clk := &countingClock{at: time.Unix(0, 0)}
		fr := g.frameFor(7, &p, picked)
		fr.clock = clk
		fr.begin(ctx, fr.now())
		fr.wait(ctx)
		res, err := fr.res, fr.err
		fr.release(1)
		if err != nil || res.Value != 7 || res.Launched != tc.copies {
			t.Fatalf("%d copies: (%+v, %v), want 7 from %d launched", tc.copies, res, err, tc.copies)
		}
		if clk.reads != tc.reads {
			t.Errorf("%d copies: the frame read its clock %d times, want %d", tc.copies, clk.reads, tc.reads)
		}
		if res.Latency != time.Millisecond {
			t.Errorf("%d copies: latency %v, want 1ms, the deciding completion's reading", tc.copies, res.Latency)
		}
	}
}

// simClock is a Clock on a sim.Engine: model time t seconds is the
// instant t seconds after the Unix epoch.
type simClock struct {
	eng   *sim.Engine
	armed *int // timers pending
}

func (c simClock) Now() time.Time {
	return time.Unix(0, int64(math.Round(c.eng.Now()*1e9)))
}

func (c simClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &simTimer{simClock: c, f: f}
	t.Reset(d)
	return t
}

// simTimer is a Timer on a simClock; an event a later Reset or Stop
// outdated does nothing.
type simTimer struct {
	simClock
	f       func()
	arming  int
	pending bool
}

func (t *simTimer) Reset(d time.Duration) bool {
	was := t.Stop()
	t.arming++
	t.pending = true
	*t.armed++
	arming := t.arming
	t.eng.At(float64(t.Now().Add(d).UnixNano())/1e9, func() {
		if t.pending && t.arming == arming {
			t.pending = false
			*t.armed--
			t.f()
		}
	})
	return was
}

func (t *simTimer) Stop() bool {
	was := t.pending
	if was {
		t.pending = false
		*t.armed--
	}
	return was
}

// simStarter serves every copy in svc seconds of the engine's time and
// refuses every Cancel, so a loser runs to completion. It records when
// each copy started and the frames it was started into.
type simStarter struct {
	clk    simClock
	svc    float64
	value  int
	starts []time.Time
	frames []*callFrame[struct{}, int]
}

func (s *simStarter) Start(_ struct{}, sink Sink[int], slot int) (Ticket, bool) {
	s.starts = append(s.starts, s.clk.Now())
	s.frames = append(s.frames, sink.(*callFrame[struct{}, int]))
	s.clk.eng.After(s.svc, func() { sink.Complete(slot, s.value, nil) })
	return Ticket{}, true
}

func (*simStarter) Cancel(Ticket) bool { return false }

// TestFrameSteppedOnFakeClock steps two-copy hedged calls (a 10ms hedge
// delay, under an ungated governor) on a simulator's clock: the hedge
// launches exactly at its delay; a primary that completes first decides
// the call with nothing armed and no hedge launched; a straggler whose
// Cancel was refused keeps its frame until it completes; and once the
// simulation has run out, the governor counts no copy in flight and
// every frame has been released.
func TestFrameSteppedOnFakeClock(t *testing.T) {
	const delay = 10 * time.Millisecond
	eng := sim.NewEngine(1)
	armed := 0
	clk := simClock{eng: eng, armed: &armed}
	gov := NewGovernor(100, 0)
	g := NewStrategyKeyedGroup[struct{}, int](LoadAwareWith(Fixed{Copies: 2, HedgeDelay: delay}, gov))
	add := func(name string, svc float64, value int) (Handle[struct{}, int], *simStarter) {
		s := &simStarter{clk: clk, svc: svc, value: value}
		return g.AddStarter(name, nil, s), s
	}
	slow, slowS := add("slow", 0.030, 1)
	fast, fastS := add("fast", 0.005, 2)
	quick, quickS := add("quick", 0.004, 3)

	type outcome struct {
		res Result[int]
		err error
		at  time.Time
	}
	step := func(picked ...Handle[struct{}, int]) *outcome {
		out := new(outcome)
		if _, err := g.StepPicked(clk, struct{}{}, picked, func(res Result[int], err error) {
			*out = outcome{res, err, clk.Now()}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// A slow primary: the hedge launches at 10ms and wins at 15ms; the
	// primary's Cancel is refused, so it keeps the frame until 30ms.
	start := clk.Now()
	hedged := step(slow, fast)
	eng.RunUntil(0.020)
	if len(fastS.starts) != 1 || !fastS.starts[0].Equal(start.Add(delay)) {
		t.Fatalf("hedge started at %v, want exactly %v", fastS.starts, start.Add(delay))
	}
	if hedged.err != nil || hedged.res.Value != 2 || hedged.res.Launched != 2 || hedged.res.Latency != 15*time.Millisecond {
		t.Fatalf("hedged call = (%+v, %v), want the hedge's 2 at 15ms from 2 launched", hedged.res, hedged.err)
	}
	fr := slowS.frames[0]
	if fr.refs.Load() != 1 || recycled(fr) {
		t.Fatalf("the refused straggler holds %d references to its frame at 20ms, want 1", fr.refs.Load())
	}
	if got := gov.Stats().InFlight; got != 1 {
		t.Fatalf("governor counts %d copies in flight at 20ms, want the straggler", got)
	}
	eng.RunUntil(0.030)
	if !recycled(fr) {
		t.Fatal("the straggler completed and its frame was not released")
	}

	// A quick primary decides at 4ms: nothing stays armed and the hedge
	// never launches.
	starts := len(fastS.starts)
	first := step(quick, fast)
	eng.RunUntil(0.034)
	if first.err != nil || first.res.Value != 3 || first.res.Launched != 1 || first.res.Latency != 4*time.Millisecond {
		t.Fatalf("primary-first call = (%+v, %v), want the primary's 3 at 4ms from 1 launched", first.res, first.err)
	}
	if armed != 0 {
		t.Fatalf("%d timers armed after the primary decided the call", armed)
	}
	eng.Run()
	if len(fastS.starts) != starts {
		t.Fatal("the hedge launched after the primary decided the call")
	}
	if got := gov.Stats().InFlight; got != 0 {
		t.Errorf("governor counts %d copies in flight after the run, want 0", got)
	}
	for _, s := range []*simStarter{slowS, fastS, quickS} {
		for _, fr := range s.frames {
			if !recycled(fr) {
				t.Errorf("a frame of %v was not released", s.starts)
			}
		}
	}
}
