package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the settle/drop contract (Sink.Drop): once the
// successes a call returns at are queued, a started copy whose reply
// arrives next completes without its value — exactly once, counted as
// dropped and not as cancelled or failed, its latency still observed,
// its frame reference held until then — and no other kind of call, and
// no other kind of reply, is ever dropped. Run with -race -count=5.

// heldStarter is a Starter whose copy the test completes by hand, the
// way a connection's reader does: claim takes the copy out of the table
// (from then on Cancel reports false), and reply offers a successful
// reply to Drop before it Completes it.
type heldStarter struct {
	mu      sync.Mutex
	sink    Sink[int]
	slot    int
	out     bool
	onStart func() // runs inside Start, once the copy is registered

	started                     chan struct{}
	completes, drops, withdrawn atomic.Int64
}

func newHeldStarter() *heldStarter { return &heldStarter{started: make(chan struct{}, 8)} }

func (h *heldStarter) Start(_ struct{}, sink Sink[int], slot int) (Ticket, bool) {
	h.mu.Lock()
	if h.out {
		panic("heldStarter holds one copy at a time")
	}
	h.sink, h.slot, h.out = sink, slot, true
	h.mu.Unlock()
	h.started <- struct{}{}
	if h.onStart != nil {
		h.onStart()
	}
	return Ticket{Ref: h}, true
}

func (h *heldStarter) Cancel(Ticket) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.out {
		return false
	}
	h.out = false
	h.withdrawn.Add(1)
	return true
}

// claim takes the held copy, as a reader claims a reply's tag.
func (h *heldStarter) claim(t *testing.T) (Sink[int], int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.out {
		t.Fatal("no copy to claim: never started, or withdrawn")
	}
	h.out = false
	return h.sink, h.slot
}

// reply completes the held copy with a successful reply carrying v,
// reporting whether the sink took it as dropped.
func (h *heldStarter) reply(t *testing.T, v int) bool {
	t.Helper()
	sink, slot := h.claim(t)
	if sink.Drop(slot) {
		h.drops.Add(1)
		return true
	}
	h.completes.Add(1)
	sink.Complete(slot, v, nil)
	return false
}

func (h *heldStarter) awaitStart(t *testing.T) {
	t.Helper()
	select {
	case <-h.started:
	case <-time.After(2 * time.Second):
		t.Fatal("copy never started")
	}
}

// heldGroup is a group over n held starters, ranked in registration
// order so that starter i is copy i of every call.
func heldGroup(n int, opts ...GroupOption) (*Group[int], []*heldStarter) {
	g := NewStrategyGroup[int](Fixed{Copies: n}, opts...)
	hs := make([]*heldStarter, n)
	for i := range hs {
		hs[i] = newHeldStarter()
		name := string(rune('a' + i))
		g.AddStarter(name, func(context.Context, struct{}) (int, error) {
			panic("a held starter's blocking form was run")
		}, hs[i])
		g.Digest(name).Observe(time.Duration(i+1) * time.Millisecond)
	}
	return g, hs
}

func statsOf(g *Group[int], name string) ReplicaStats {
	for _, r := range g.Stats().Replicas {
		if r.Name == name {
			return r
		}
	}
	return ReplicaStats{}
}

// TestAsyncSettledCallDropsLateSuccess: both replies of a two-copy read
// land before the caller's goroutine runs again, in either order. The
// first decides the call; the second is dropped — completed once,
// without its value, not withdrawn, not counted cancelled anywhere, and
// its replica's digest learns from it all the same.
func TestAsyncSettledCallDropsLateSuccess(t *testing.T) {
	for _, winner := range []int{0, 1} {
		t.Run("copy "+string(rune('0'+winner))+" answers first", func(t *testing.T) {
			c := NewCounters()
			g, hs := heldGroup(2, WithObserver(c))
			loser := 1 - winner
			var lateDropped bool
			// Copy 1 starts last, on the caller's goroutine: both replies
			// arrive inside its Start, before the event loop has run.
			hs[1].onStart = func() {
				if hs[winner].reply(t, 10+winner) {
					t.Error("the first success of the call was dropped")
				}
				lateDropped = hs[loser].reply(t, 10+loser)
			}
			res, err := g.Do(context.Background())
			if err != nil || res.Value != 10+winner || res.Index != winner {
				t.Fatalf("Do = (%+v, %v), want copy %d's %d", res, err, winner, 10+winner)
			}
			if !lateDropped {
				t.Fatal("the reply that arrived after the call was settled was decoded, not dropped")
			}
			if res.Launched != 2 || res.Cancelled != 0 {
				t.Errorf("Launched/Cancelled = %d/%d, want 2/0: a dropped copy answered, it was not reclaimed", res.Launched, res.Cancelled)
			}
			if c.Ops() != 1 || c.Failures() != 0 || c.LaunchedCopies() != 2 || c.CancelledCopies() != 0 {
				t.Errorf("observer saw ops %d failures %d launched %d cancelled %d, want 1 0 2 0",
					c.Ops(), c.Failures(), c.LaunchedCopies(), c.CancelledCopies())
			}
			for i, h := range hs {
				name := string(rune('a' + i))
				st := statsOf(g, name)
				wantDropped := int64(0)
				if i == loser {
					wantDropped = 1
				}
				if st.Dropped != wantDropped || st.Cancelled != 0 {
					t.Errorf("%s: Dropped/Cancelled = %d/%d, want %d/0", name, st.Dropped, st.Cancelled, wantDropped)
				}
				if st.Observations != 2 { // the ranking seed and this reply
					t.Errorf("%s: digest holds %d observations, want 2: a dropped reply is still an answer", name, st.Observations)
				}
				if n := h.completes.Load() + h.drops.Load(); n != 1 || h.withdrawn.Load() != 0 {
					t.Errorf("%s: completed %d times, withdrawn %d; want exactly once and never", name, n, h.withdrawn.Load())
				}
			}
		})
	}
}

// TestAsyncSettleWaitsForTheQuorum: a quorum-2 call over three copies is
// not settled by its first success — the second reply is decoded and
// counts — and is by its second: the third is dropped.
func TestAsyncSettleWaitsForTheQuorum(t *testing.T) {
	g, hs := heldGroup(3)
	var dropped [3]bool
	hs[2].onStart = func() {
		for i, h := range hs {
			dropped[i] = h.reply(t, i+1)
		}
	}
	res, err := g.Do(context.Background(), WithQuorum(2))
	if err != nil || res.Value != 1 || res.Launched != 3 || res.Cancelled != 0 {
		t.Fatalf("Do = (%+v, %v), want the first win's 1 with 3 launched, 0 cancelled", res, err)
	}
	if dropped != [3]bool{false, false, true} {
		t.Errorf("dropped = %v, want only the reply after the second success", dropped)
	}
	if st := statsOf(g, "c"); st.Dropped != 1 || st.Observations != 2 {
		t.Errorf("c: Dropped %d, observations %d; want 1 and 2", st.Dropped, st.Observations)
	}
}

// TestAsyncCollectingCallNeverDrops: a call that collects outcomes is
// left alone — its late reply is decoded and completed as before.
func TestAsyncCollectingCallNeverDrops(t *testing.T) {
	g, hs := heldGroup(2)
	var dropped [2]bool
	hs[1].onStart = func() {
		for i, h := range hs {
			dropped[i] = h.reply(t, i+1)
		}
	}
	var outs []Outcome[int]
	res, err := g.Do(context.Background(), WithCollectOutcomes(&outs))
	if err != nil || res.Value != 1 || res.Cancelled != 0 {
		t.Fatalf("Do = (%+v, %v), want 1 with nothing cancelled", res, err)
	}
	if dropped != [2]bool{} {
		t.Errorf("dropped = %v: a collecting call dropped a reply", dropped)
	}
	if len(outs) != 1 || outs[0].Value != 1 {
		t.Errorf("collected %+v, want the deciding win", outs)
	}
	if st := statsOf(g, "b"); st.Dropped != 0 {
		t.Errorf("b: Dropped = %d, want 0", st.Dropped)
	}
}

// settleFrame assembles a two-copy frame over held starters by hand, the
// way launchFrame fills one, on a pool of its own so the test can watch
// it recycle.
func settleFrame() (*callFrame[struct{}, int], *Group[int], []*heldStarter) {
	g, hs := heldGroup(2)
	fr := &callFrame[struct{}, int]{pool: new(sync.Pool), n: 2, quorum: 1}
	fr.refs.Store(1)
	fr.ensureChan(2)
	for i, name := range []string{"a", "b"} {
		h, _ := g.Lookup(name)
		fr.pickedSlice(2)[i] = h
	}
	return fr, g, hs
}

// recycled reports whether fr has been through release's last-reference
// path: no reference left and the per-call state cleared.
func recycled(fr *callFrame[struct{}, int]) bool {
	return fr.refs.Load() == 0 && fr.won.Load() == 0 && fr.picked == nil
}

// TestFrameSettledStragglerPinsFrame: the loser's reply is claimed —
// Cancel can no longer withdraw it — but not yet completed when the call
// returns. Its reference pins the frame, settled state and all, until it
// completes: dropped if it succeeded, delivered as ever if it failed.
func TestFrameSettledStragglerPinsFrame(t *testing.T) {
	boom := errors.New("boom")
	for _, late := range []struct {
		name string
		err  error
	}{{"late success is dropped", nil}, {"late failure is delivered", boom}} {
		t.Run(late.name, func(t *testing.T) {
			fr, g, hs := settleFrame()
			type outcome struct {
				res Result[int]
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				fr.begin(context.Background(), time.Now())
				fr.wait(context.Background())
				res, err := fr.res, fr.err
				fr.release(1)
				done <- outcome{res, err}
			}()
			hs[0].awaitStart(t)
			hs[1].awaitStart(t)
			sink, slot := hs[1].claim(t) // the reader has the loser's reply in hand
			if hs[0].reply(t, 7) {
				t.Fatal("the first success was dropped")
			}
			out := <-done
			if out.err != nil || out.res.Value != 7 || out.res.Launched != 2 {
				t.Fatalf("wait = (%+v, %v), want the winner's 7", out.res, out.err)
			}
			if hs[1].withdrawn.Load() != 0 {
				t.Fatal("a claimed copy was withdrawn")
			}
			if recycled(fr) || fr.refs.Load() != 1 || !fr.settled() {
				t.Fatalf("with the loser still out: refs %d, settled %v, recycled %v; want 1, true, false",
					fr.refs.Load(), fr.settled(), recycled(fr))
			}
			if late.err != nil {
				sink.Complete(slot, 0, late.err)
			} else if !sink.Drop(slot) {
				t.Fatal("a reply for a settled call was not dropped")
			}
			if !recycled(fr) {
				t.Errorf("after the last copy completed: refs %d, won %d; the frame did not recycle", fr.refs.Load(), fr.won.Load())
			}
			st := statsOf(g, "b")
			wantDropped, wantObs := int64(1), int64(2)
			if late.err != nil {
				wantDropped, wantObs = 0, 1
			}
			if st.Dropped != wantDropped || st.Observations != wantObs || st.Cancelled != 0 {
				t.Errorf("loser: Dropped %d, observations %d, Cancelled %d; want %d, %d, 0",
					st.Dropped, st.Observations, st.Cancelled, wantDropped, wantObs)
			}
		})
	}
}
