package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests pin the deferred context watch (watchCtx): a call with
// copies out asks for its caller's Done channel only once watchDelay
// (1ms) has passed, so one that ends sooner never makes it; a
// cancellation is still seen, at 1ms if it came earlier and at once
// after it; and contexts that need no watch, or cannot wait 1ms, are
// watched from the start. Run with -race -count=5.

// spyCtx is a cancellable context that counts the calls of its Done: the
// engine asks for the channel only once it watches the context.
type spyCtx struct {
	context.Context
	asked atomic.Int32
}

func (c *spyCtx) Done() <-chan struct{} {
	c.asked.Add(1)
	return c.Context.Done()
}

func newSpyCtx() (*spyCtx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return &spyCtx{Context: ctx}, cancel
}

// failStarter fails every copy before Start returns.
type failStarter struct{ err error }

func (f failStarter) Start(_ struct{}, sink Sink[int], slot int) (Ticket, bool) {
	sink.Complete(slot, 0, f.err)
	return Ticket{Ref: f}, true
}

func (failStarter) Cancel(Ticket) bool { return false }

// frameOf is the call frame a held starter's copy was started into.
func frameOf(h *heldStarter) *callFrame[struct{}, int] {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sink.(*callFrame[struct{}, int])
}

// watchedGroup is a governed two-copy group over held starters whose
// copies never answer unless the test replies.
func watchedGroup() (*Group[int], []*heldStarter, *Governor) {
	gov := NewGovernor(100, 0) // never gates
	g, hs := heldGroup(2)
	g.SetStrategy(LoadAwareWith(Fixed{Copies: 2}, gov))
	return g, hs, gov
}

type callOutcome struct {
	res Result[int]
	err error
}

// goDo runs the call on a goroutine of its own.
func goDo(ctx context.Context, g *Group[int]) chan callOutcome {
	out := make(chan callOutcome, 1)
	go func() {
		res, err := g.Do(ctx)
		out <- callOutcome{res, err}
	}()
	return out
}

// await waits for the call's outcome, failing the test if it does not
// come within a second: a call that missed its caller's cancellation
// waits forever on copies that never answer.
func await(t *testing.T, out chan callOutcome) callOutcome {
	t.Helper()
	select {
	case o := <-out:
		return o
	case <-time.After(time.Second):
		t.Fatal("the call did not return after its context was cancelled")
	}
	panic("unreachable")
}

// cancelledCleanly requires a call its caller cancelled to have returned
// the bare context error with both copies launched and cancelled, each
// held copy withdrawn, the governor's in-flight count back at 0, and
// the frame released by every holder, which recycles it.
func cancelledCleanly(t *testing.T, o callOutcome, want error, fr *callFrame[struct{}, int], gov *Governor, held ...*heldStarter) {
	t.Helper()
	if o.err != want {
		t.Errorf("err = %v, want the bare %v", o.err, want)
	}
	if o.res.Launched != 2 || o.res.Cancelled != len(held) {
		t.Errorf("Launched %d, Cancelled %d; want 2 and %d", o.res.Launched, o.res.Cancelled, len(held))
	}
	for _, h := range held {
		if n := h.withdrawn.Load(); n != 1 {
			t.Errorf("a held copy was withdrawn %d times, want once", n)
		}
	}
	eventually(t, "the governor counts no copy in flight", func() bool { return gov.Stats().InFlight == 0 })
	eventually(t, "the frame recycles", func() bool { return fr.refs.Load() == 0 })
}

// TestAsyncContextCancelledBeforeTheCall: a context already done is
// watched at once, and the call returns its error.
func TestAsyncContextCancelledBeforeTheCall(t *testing.T) {
	g, hs, gov := watchedGroup()
	ctx, cancel := newSpyCtx()
	cancel()
	o := await(t, goDo(ctx, g))
	cancelledCleanly(t, o, context.Canceled, frameOf(hs[0]), gov, hs...)
}

// TestAsyncCancelInsideTheFirstTick: the caller gives up as soon as both
// copies are out, before the watch has fired, and the copies never
// answer. The call returns context.Canceled once the tick comes.
func TestAsyncCancelInsideTheFirstTick(t *testing.T) {
	g, hs, gov := watchedGroup()
	ctx, cancel := newSpyCtx()
	defer cancel()
	start := time.Now()
	out := goDo(ctx, g)
	hs[0].awaitStart(t)
	hs[1].awaitStart(t)
	cancel()
	o := await(t, out)
	t.Logf("returned %v after the call started", time.Since(start))
	cancelledCleanly(t, o, context.Canceled, frameOf(hs[0]), gov, hs...)
}

// TestAsyncCancelAfterTheWatchFired: once the engine has asked for the
// Done channel the tick is behind it, and nothing of the call is armed
// on a timer any more (no hedge, the watch fired): only the channel
// can wake it, so a cancellation ends the call at once.
func TestAsyncCancelAfterTheWatchFired(t *testing.T) {
	g, hs, gov := watchedGroup()
	ctx, cancel := newSpyCtx()
	defer cancel()
	out := goDo(ctx, g)
	eventually(t, "the engine watches the context after the first tick", func() bool { return ctx.asked.Load() > 0 })
	cancel()
	cancelledCleanly(t, await(t, out), context.Canceled, frameOf(hs[0]), gov, hs...)
}

// TestAsyncCancelAfterRelaunch: copy 0 fails at once, so the engine
// stops the hedge deadline and launches copy 1 without waiting for it;
// copy 1 never answers. Stopping the hedge must leave the context watch
// armed, or the call would never see its caller give up.
func TestAsyncCancelAfterRelaunch(t *testing.T) {
	gov := NewGovernor(100, 0)
	g := NewStrategyGroup[int](LoadAwareWith(Fixed{Copies: 2, HedgeDelay: time.Hour}, gov))
	g.AddStarter("fails", func(context.Context, struct{}) (int, error) {
		panic("a started member's blocking form was run")
	}, failStarter{errors.New("boom")})
	hung := newHeldStarter()
	g.AddStarter("hangs", func(context.Context, struct{}) (int, error) {
		panic("a held starter's blocking form was run")
	}, hung)
	g.Digest("fails").Observe(time.Millisecond)
	g.Digest("hangs").Observe(2 * time.Millisecond)
	ctx, cancel := newSpyCtx()
	defer cancel()
	out := goDo(ctx, g)
	hung.awaitStart(t)
	eventually(t, "the engine watches the context after the first tick", func() bool { return ctx.asked.Load() > 0 })
	cancel()
	cancelledCleanly(t, await(t, out), context.Canceled, frameOf(hung), gov, hung)
}

// TestAsyncDeadlineInsideTheFirstTick: a deadline closer than a tick is
// watched from the start — the watch would see it late —
// and the call returns context.DeadlineExceeded.
func TestAsyncDeadlineInsideTheFirstTick(t *testing.T) {
	g, hs, gov := watchedGroup()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
	defer cancel()
	o := await(t, goDo(ctx, g))
	cancelledCleanly(t, o, context.DeadlineExceeded, frameOf(hs[0]), gov, hs...)
}

// TestAsyncDurableCancelAfterTheWatchFired: a durable call watches its
// context the same way. Once the tick has passed, a cancellation returns
// the caller at once; the copies still out run on, report, and release
// the frame and the governor when they complete.
func TestAsyncDurableCancelAfterTheWatchFired(t *testing.T) {
	g, picked, hs, log, _ := durableGroup(2)
	gov := NewGovernor(100, 0)
	ctx, cancel := newSpyCtx()
	defer cancel()
	done := doDurable(ctx, g, []byte("v"), picked, 2, gov)
	eventually(t, "the engine watches the context after the first tick", func() bool { return ctx.asked.Load() > 0 })
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("DoDurable = %v, want the bare context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("DoDurable did not return after its context was cancelled")
	}
	hs[0].mu.Lock()
	fr := hs[0].sinks[0].(*callFrame[[]byte, int])
	hs[0].mu.Unlock()
	if fr.refs.Load() == 0 || gov.Stats().InFlight != 2 {
		t.Fatalf("%d frame references and %d copies in flight after the return; the copies still out hold both", fr.refs.Load(), gov.Stats().InFlight)
	}
	for i, h := range hs {
		h.complete(0, i, nil)
	}
	if log.len() != 2 {
		t.Errorf("%d copies reported, want both", log.len())
	}
	eventually(t, "the governor counts no copy in flight", func() bool { return gov.Stats().InFlight == 0 })
	eventually(t, "the frame recycles", func() bool { return fr.refs.Load() == 0 })
}

// TestAsyncWatchCtxRules checks watchCtx's choice on a bare frame: which
// contexts are watched at once (a channel returned, no watch deadline,
// so arming takes no reference) and which wait for the tick (nil
// returned, the watch deadline set, and the armed timer holding a
// reference until its event is posted or it is stopped).
func TestAsyncWatchCtxRules(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	soon, cancelSoon := context.WithTimeout(context.Background(), 500*time.Microsecond)
	defer cancelSoon()
	later, cancelLater := context.WithTimeout(context.Background(), time.Hour)
	defer cancelLater()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		atOnce bool
	}{
		{"Background", context.Background(), true},
		{"TODO", context.TODO(), true},
		{"already cancelled", cancelled, true},
		{"deadline within a tick", soon, true},
		{"deadline in an hour", later, false},
		{"cancellable", live, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := &callFrame[struct{}, int]{pool: new(sync.Pool)}
			fr.refs.Store(1)
			fr.ensureChan(2)
			done := fr.watchCtx(tc.ctx, time.Now())
			if want := tc.ctx.Done(); done != want {
				if tc.atOnce || done != nil {
					t.Fatalf("watchCtx returned %v, want %v", done, want)
				}
			}
			fr.arm(time.Now())
			armed, refs := !fr.watchAt.IsZero(), fr.refs.Load()
			if armed == tc.atOnce || (refs == 2) != armed {
				t.Fatalf("watch armed %v with %d references; want armed %v, holding the second", armed, refs, !tc.atOnce)
			}
			if tc.atOnce {
				return
			}
			if tc.name == "cancellable" {
				// Let it fire: one timer event, its reference dropped.
				r := <-fr.results
				if !r.timer {
					t.Fatalf("event %+v, want the timer's", r)
				}
				eventually(t, "the fired timer drops its reference", func() bool { return fr.refs.Load() == 1 })
				if err := fr.timerEvent(tc.ctx, time.Now()); fr.ctxDone != tc.ctx.Done() || err != nil {
					t.Fatalf("timerEvent = (%v, %v), want the Done channel of a due watch", fr.ctxDone, err)
				}
				return
			}
			fr.stopTimer()
			if fr.refs.Load() != 1 {
				t.Fatalf("unwatch left %d references", fr.refs.Load())
			}
		})
	}
}

// TestAsyncFreshContextAllocs: a call over starters that answer at once,
// under a fresh cancellable context per call, allocates exactly what
// making and cancelling that context allocates — the context's Done
// channel is never made — started, hedged or durable. A context
// reused across calls would make its channel once and hide the cost.
func TestAsyncFreshContextAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	echo := func(_ context.Context, arg int) (int, error) { return arg, nil }
	build := func(g *KeyedGroup[int, int]) (*KeyedGroup[int, int], []Handle[int, int]) {
		var picked []Handle[int, int]
		for _, name := range []string{"a", "b", "c"} {
			picked = append(picked, g.AddStarter(name, echo, &echoStarter{}))
		}
		return g, picked[:2]
	}
	started, _ := build(NewStrategyKeyedGroup[int, int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(1)))
	hedged, _ := build(NewStrategyKeyedGroup[int, int](Fixed{Copies: 2, HedgeDelay: time.Second}, WithSeed(1)))
	durable, picked := build(NewReportingKeyedGroup[int, int](nil, func(arg int) int { return arg }, func(CopyDone[int, int]) {}))
	fresh := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	base := testing.AllocsPerRun(500, func() {
		_, cancel := fresh()
		cancel()
	})
	for _, tc := range []struct {
		name string
		call func(ctx context.Context, i int) error
	}{
		{"started, both at once", func(ctx context.Context, i int) error {
			res, err := started.Do(ctx, i)
			if err == nil && res.Value != i {
				err = errors.New("wrong value")
			}
			return err
		}},
		{"wheel hedge armed", func(ctx context.Context, i int) error {
			res, err := hedged.Do(ctx, i)
			if err == nil && res.Launched != 1 {
				err = errors.New("the hedge fired")
			}
			return err
		}},
		{"durable", func(ctx context.Context, i int) error {
			return durable.DoDurable(ctx, i, picked, 1, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			i := 0
			call := func() {
				i++
				ctx, cancel := fresh()
				if err := tc.call(ctx, i); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
				cancel()
			}
			for range 100 {
				call() // warm the frame pool, each frame making its timer
			}
			if avg := testing.AllocsPerRun(500, call); avg != base {
				t.Errorf("a call under a fresh context allocates %.2f/op, making the context %.2f", avg, base)
			}
		})
	}
}

// lateFailStarter fails every copy d after Start, from a goroutine of
// its own; a started copy cannot be withdrawn.
type lateFailStarter struct{ d time.Duration }

func (l lateFailStarter) Start(_ struct{}, sink Sink[int], slot int) (Ticket, bool) {
	time.AfterFunc(l.d, func() { sink.Complete(slot, 0, errors.New("late")) })
	return Ticket{Ref: l}, true
}

func (lateFailStarter) Cancel(Ticket) bool { return false }

// TestAsyncStaleTimerEventAfterRelaunch: a timer event that arrives
// after a relaunch moved the hedge deadline is stale, and the loop acts
// only on what the clock says is due: it never launches the next hedge
// early, and never drops the context watch.
//
// The first part makes stale events by hand: copy 0 fails at once, so
// copy 1 launches without waiting and copy 2's hedge is an hour away,
// and the test posts timer events while the watch is still ahead. The
// second part lets them happen: copy 0 fails just as its 1ms hedge
// fires, so the hedge's event is often read after the failure's
// relaunch, and copy 2 must still wait its own millisecond.
func TestAsyncStaleTimerEventAfterRelaunch(t *testing.T) {
	build := func(first Starter[struct{}, int], delay time.Duration) (*Group[int], *heldStarter, *heldStarter) {
		g := NewStrategyGroup[int](Fixed{Copies: 3, HedgeDelay: delay})
		g.AddStarter("first", func(context.Context, struct{}) (int, error) {
			panic("a started member's blocking form was run")
		}, first)
		held := []*heldStarter{newHeldStarter(), newHeldStarter()}
		for i, name := range []string{"second", "third"} {
			g.AddStarter(name, func(context.Context, struct{}) (int, error) {
				panic("a held starter's blocking form was run")
			}, held[i])
		}
		for i, name := range []string{"first", "second", "third"} {
			g.Digest(name).Observe(time.Duration(i+1) * time.Millisecond)
		}
		return g, held[0], held[1]
	}

	t.Run("posted", func(t *testing.T) {
		g, second, third := build(failStarter{errors.New("boom")}, time.Hour)
		ctx, cancel := newSpyCtx()
		defer cancel()
		out := goDo(ctx, g)
		second.awaitStart(t)
		fr := frameOf(second)
		for range 5 {
			if fr.timerQueued.CompareAndSwap(false, true) {
				fr.results <- indexed[int]{timer: true}
			}
			for len(fr.results) != 0 || fr.timerQueued.Load() {
				runtime.Gosched()
			}
		}
		select {
		case <-third.started:
			t.Fatal("a stale timer event launched the hour-long hedge")
		case <-time.After(5 * time.Millisecond):
		}
		eventually(t, "the engine watches the context after the first tick", func() bool { return ctx.asked.Load() > 0 })
		cancel()
		o := await(t, out)
		if o.err != context.Canceled || o.res.Launched != 2 || second.withdrawn.Load() != 1 {
			t.Fatalf("err %v, %d launched, held copy withdrawn %d times; want context.Canceled, 2 and once",
				o.err, o.res.Launched, second.withdrawn.Load())
		}
		eventually(t, "the frame recycles", func() bool { return fr.refs.Load() == 0 })
	})

	t.Run("raced", func(t *testing.T) {
		const delay = time.Millisecond
		g, second, third := build(lateFailStarter{delay}, delay)
		var starts [2]time.Time
		second.onStart = func() { starts[0] = time.Now() }
		third.onStart = func() { starts[1] = time.Now() }
		for round := 0; round < 20; round++ {
			ctx, cancel := newSpyCtx()
			out := goDo(ctx, g)
			second.awaitStart(t)
			third.awaitStart(t)
			cancel()
			if o := await(t, out); o.err != context.Canceled {
				t.Fatalf("round %d: err %v, want context.Canceled", round, o.err)
			}
			if gap := starts[1].Sub(starts[0]); gap < delay {
				t.Fatalf("round %d: copy 2 launched %v after copy 1, before its %v hedge delay", round, gap, delay)
			}
		}
	})
}
