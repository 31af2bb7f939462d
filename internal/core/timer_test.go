package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests pin the call frame's one timer (callFrame.arm, stopTimer,
// timerFired): it posts a timer event into its own frame no sooner than
// the earlier of the frame's deadlines, an armed timer holds exactly one
// frame reference, a stop that withdraws the fire drops it and a fire
// that ran drops its own, at most one timer event is queued at a time,
// and arming, stopping and firing allocate nothing once the frame has
// made its timer. Run with -race -count=5.

// timerFrame is a bare frame holding the engine's reference.
func timerFrame() *callFrame[struct{}, int] {
	fr := &callFrame[struct{}, int]{pool: new(sync.Pool)}
	fr.refs.Store(1)
	fr.ensureChan(2)
	return fr
}

// armHedge arms fr's timer for a hedge d from now.
func armHedge(fr *callFrame[struct{}, int], d time.Duration) {
	now := time.Now()
	fr.hedgeAt = now.Add(d)
	fr.arm(now)
}

// TestTimerFiresWithArgs: an armed timer posts one timer event into its
// own frame, no sooner than its deadline, and drops the reference its
// arming took.
func TestTimerFiresWithArgs(t *testing.T) {
	fr := timerFrame()
	start := time.Now()
	armHedge(fr, 5*time.Millisecond)
	if n := fr.refs.Load(); n != 2 {
		t.Fatalf("an armed timer left %d references, want 2", n)
	}
	select {
	case r := <-fr.results:
		if !r.timer {
			t.Fatalf("event %+v, want a timer event", r)
		}
		if el := time.Since(start); el < 5*time.Millisecond {
			t.Fatalf("fired after %v, before its 5ms deadline", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
	eventually(t, "the fire drops its reference", func() bool { return fr.refs.Load() == 1 })
}

func TestTimerStop(t *testing.T) {
	fr := timerFrame()
	armHedge(fr, 50*time.Millisecond)
	if !fr.stopTimer() {
		t.Fatal("stopTimer on an armed timer = false, want true")
	}
	if fr.stopTimer() {
		t.Fatal("second stopTimer = true, want false")
	}
	if n := fr.refs.Load(); n != 1 {
		t.Fatalf("%d references after the stop, want 1", n)
	}
	time.Sleep(80 * time.Millisecond)
	if len(fr.results) != 0 {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	fr := timerFrame()
	armHedge(fr, time.Millisecond)
	<-fr.results
	eventually(t, "the fire drops its reference", func() bool { return fr.refs.Load() == 1 })
	if fr.stopTimer() {
		t.Fatal("stopTimer after the fire = true, want false")
	}
	if n := fr.refs.Load(); n != 1 {
		t.Fatalf("%d references, want 1: the stop dropped a reference twice", n)
	}
}

// TestTimerZeroHandle: a frame with no deadline makes no timer and takes
// no reference to arm it, and stopping the timer it never made is a
// no-op.
func TestTimerZeroHandle(t *testing.T) {
	fr := timerFrame()
	fr.arm(time.Now())
	if fr.tm != nil || fr.refs.Load() != 1 {
		t.Fatalf("arming with no deadline made timer %v and left %d references", fr.tm, fr.refs.Load())
	}
	if fr.stopTimer() {
		t.Fatal("stopTimer with no timer = true")
	}
}

// TestTimerNeverFiresEarly: a call's hedges launch on the clock, each no
// sooner than its delay after the copy before it, however late the
// timer's events are read. Here the copies never answer, the hedge delay
// is 20ms, and the machine is kept busy by spinning goroutines.
func TestTimerNeverFiresEarly(t *testing.T) {
	const delay = 20 * time.Millisecond
	g, hs := heldGroup(3)
	g.SetStrategy(Fixed{Copies: 3, HedgeDelay: delay})
	var starts [3]time.Time
	for i, h := range hs {
		h.onStart = func() { starts[i] = time.Now() }
	}
	stop := make(chan struct{})
	var spin sync.WaitGroup
	for range 2 {
		spin.Add(1)
		go func() {
			defer spin.Done()
			for {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}()
	}
	ctx, cancel := newSpyCtx()
	out := goDo(ctx, g)
	for _, h := range hs {
		h.awaitStart(t)
	}
	close(stop)
	spin.Wait()
	cancel()
	await(t, out)
	for i := 1; i < len(starts); i++ {
		if gap := starts[i].Sub(starts[i-1]); gap < delay {
			t.Errorf("copy %d launched %v after copy %d, before its %v hedge delay", i, gap, i-1, delay)
		}
	}
}

// TestTimerStopLosingToAFireLeavesTheNextArmingAlone: a stop that comes
// after the runtime has started the fire, so it withdraws nothing, must
// leave the fire's reference to the fire, and an arming made right after
// it must hold its own reference and fire in its turn. On one P the
// runtime runs both timers below in one batch and starts the later one's
// function first, so its stop meets exactly that fire (under -race the
// scheduler shuffles, and some rounds are ordinary).
func TestTimerStopLosingToAFireLeavesTheNextArmingAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 20; round++ {
		fr := timerFrame()
		armHedge(fr, time.Millisecond)
		var stopped bool
		done := make(chan struct{})
		time.AfterFunc(time.Millisecond, func() {
			if stopped = fr.stopTimer(); !stopped {
				<-fr.results // the fire that got in first posts its event
				fr.timerEvent(context.Background(), time.Now())
			}
			armHedge(fr, time.Hour)
			close(done)
		})
		// Hold the P past both deadlines, so the runtime finds them
		// expired together.
		for spin := time.Now(); time.Since(spin) < 3*time.Millisecond; {
		}
		<-done
		// The next arming holds one reference; a stale fire, if any,
		// dropped its own.
		eventually(t, "the references settle at the engine's and the next arming's", func() bool { return fr.refs.Load() == 2 })
		if stopped && len(fr.results) != 0 {
			t.Fatalf("round %d: a withdrawn fire posted an event", round)
		}
		if !fr.stopTimer() {
			t.Fatalf("round %d: the hour-long arming was not pending", round)
		}
		if n := fr.refs.Load(); n != 1 {
			t.Fatalf("round %d: %d references after stopping everything, want 1", round, n)
		}
	}
}

// TestTimerStaleHandleAfterReuse: an event from a fire that a re-arm
// came too late for is stale. Read after the re-arm, it finds nothing
// due, and the re-armed timer still posts its own event at its deadline.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	fr := timerFrame()
	armHedge(fr, 0)
	eventually(t, "the first fire posts and drops its reference", func() bool {
		return len(fr.results) == 1 && fr.refs.Load() == 1
	})
	rearmed := time.Now()
	fr.watchAt = rearmed.Add(time.Hour)
	armHedge(fr, 20*time.Millisecond)
	<-fr.results // the stale event
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := fr.timerEvent(ctx, time.Now()); fr.ctxDone != nil || err != nil || fr.watchAt.IsZero() || !time.Now().Before(fr.hedgeAt) {
		t.Fatal("the stale event found something due")
	}
	select {
	case <-fr.results:
		if el := time.Since(rearmed); el < 20*time.Millisecond {
			t.Fatalf("the re-armed timer fired %v after its arming, before its 20ms", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the re-armed timer never fired")
	}
	eventually(t, "the second fire drops its reference", func() bool { return fr.refs.Load() == 1 })
}

// TestTimerManyTimers arms frames across a range of delays and checks
// each posts exactly one event and ends holding only the engine's
// reference.
func TestTimerManyTimers(t *testing.T) {
	const n = 500
	frames := make([]*callFrame[struct{}, int], n)
	for i := range frames {
		frames[i] = timerFrame()
		armHedge(frames[i], time.Duration(1+(i*7)%200)*time.Millisecond)
	}
	for i, fr := range frames {
		select {
		case <-fr.results:
		case <-time.After(10 * time.Second):
			t.Fatalf("timer %d never fired", i)
		}
	}
	time.Sleep(10 * time.Millisecond)
	for i, fr := range frames {
		if len(fr.results) != 0 || fr.refs.Load() != 1 {
			t.Fatalf("timer %d: %d more events, %d references", i, len(fr.results), fr.refs.Load())
		}
	}
}

// TestTimerStopUnderFire storms arm/stop against short timers, some due
// at once: every arming either posts its event or is withdrawn by the
// stop, never both and never neither, and every frame ends holding only
// the engine's reference (the race detector sees a fire touching a
// frame it no longer holds).
func TestTimerStopUnderFire(t *testing.T) {
	const n = 400
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fr := timerFrame()
				armHedge(fr, time.Duration((seed+i)%3)*time.Millisecond)
				if i%2 == 0 {
					time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
				}
				if fr.stopTimer() {
					stopped.Add(1)
					continue
				}
				select {
				case <-fr.results:
					fired.Add(1)
				case <-time.After(2 * time.Second):
					t.Error("a timer neither stopped nor fired")
					return
				}
				for fr.refs.Load() != 1 {
					runtime.Gosched()
				}
			}
		}(g * 13)
	}
	wg.Wait()
	if got := fired.Load() + stopped.Load(); got != 4*n {
		t.Fatalf("fired(%d) + stopped(%d) = %d, want %d", fired.Load(), stopped.Load(), got, 4*n)
	}
}

// TestTimerAllocs: arming and stopping a frame's timer, and arming it and
// letting it fire, allocate nothing once the frame has made its timer.
func TestTimerAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	fr := timerFrame()
	armHedge(fr, time.Hour)
	fr.stopTimer()
	if a := testing.AllocsPerRun(1000, func() {
		armHedge(fr, time.Hour)
		fr.stopTimer()
	}); a != 0 {
		t.Errorf("arm+stop: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() {
		armHedge(fr, 0)
		<-fr.results
		fr.timerEvent(context.Background(), time.Now())
		for fr.refs.Load() != 1 {
			runtime.Gosched()
		}
	}); a != 0 {
		t.Errorf("arm+fire: %v allocs, want 0", a)
	}
}
