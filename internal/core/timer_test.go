package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests pin AfterFunc's contract: a timer never fires before its
// delay, Stop true means the callback never runs, a handle outlives its
// arming harmlessly, and arming, stopping and firing allocate nothing.
// Run with -race -count=5.

func TestTimerFiresWithArgs(t *testing.T) {
	type fire struct {
		c any
		i int64
	}
	ch := make(chan fire, 1)
	arg := new(int)
	start := time.Now()
	AfterFunc(5*time.Millisecond, func(c any, i int64) { ch <- fire{c, i} }, arg, 42)
	select {
	case f := <-ch:
		if f.c != any(arg) || f.i != 42 {
			t.Fatalf("callback args = (%v, %d), want (%p, 42)", f.c, f.i, arg)
		}
		if el := time.Since(start); el < 5*time.Millisecond {
			t.Fatalf("fired after %v, before its 5ms delay", el)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer never fired")
	}
}

func TestTimerStop(t *testing.T) {
	var fired atomic.Bool
	tm := AfterFunc(50*time.Millisecond, func(any, int64) { fired.Store(true) }, nil, 0)
	if !tm.Stop() {
		t.Fatal("Stop on armed timer = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop = true, want false")
	}
	time.Sleep(80 * time.Millisecond)
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	ch := make(chan struct{})
	tm := AfterFunc(time.Millisecond, func(any, int64) { close(ch) }, nil, 0)
	<-ch
	if tm.Stop() {
		t.Fatal("Stop after fire = true, want false")
	}
}

func TestTimerZeroHandle(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Fatal("zero handle Stop = true")
	}
}

// TestTimerNeverFiresEarly: a deadline is d after the arm on the clock,
// whatever else the process is doing. Here one timer's callback blocks
// for 30ms with a 10s timer pending, and a 20ms timer is armed 20ms into
// that block. A timer placed by the ticks a single timer goroutine has
// processed, rather than by the clock, fired this one about 11ms after
// it was armed: its ticks had stalled behind the blocked callback.
func TestTimerNeverFiresEarly(t *testing.T) {
	long := AfterFunc(10*time.Second, func(any, int64) {}, nil, 0)
	defer long.Stop()
	blocked := make(chan struct{})
	AfterFunc(time.Millisecond, func(any, int64) {
		close(blocked)
		time.Sleep(30 * time.Millisecond)
	}, nil, 0)
	<-blocked
	time.Sleep(20 * time.Millisecond)
	fired := make(chan time.Duration, 1)
	armed := time.Now()
	AfterFunc(20*time.Millisecond, func(any, int64) { fired <- time.Since(armed) }, nil, 0)
	select {
	case el := <-fired:
		if el < 20*time.Millisecond {
			t.Fatalf("a 20ms timer fired %v after it was armed", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestTimerStopLosingToAFireLeavesTheNextArmingAlone: a Stop that comes
// after the runtime has started the fire's goroutine, but before that
// goroutine claims the arming, wins the arming (f never runs) yet must
// not recycle the node: the fire is still on its way, and if the node
// were armed again first, that fire would claim the new arming and run
// its callback at once. On one P the runtime runs both timers below in
// one batch and starts the later one's goroutine first, so its Stop
// meets exactly that fire (under -race the scheduler shuffles, and some
// rounds are ordinary).
func TestTimerStopLosingToAFireLeavesTheNextArmingAlone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for round := 0; round < 20; round++ {
		var first, next atomic.Int32
		a := AfterFunc(time.Millisecond, func(any, int64) { first.Add(1) }, nil, 0)
		var (
			stopped bool
			b       Timer
		)
		done := make(chan struct{})
		time.AfterFunc(time.Millisecond, func() {
			stopped = a.Stop()
			b = AfterFunc(time.Hour, func(any, int64) { next.Add(1) }, nil, 0)
			close(done)
		})
		// Hold the P past both deadlines, so the runtime finds them
		// expired together.
		for spin := time.Now(); time.Since(spin) < 3*time.Millisecond; {
		}
		<-done
		time.Sleep(5 * time.Millisecond) // let a fire still on its way land
		if n := next.Load(); n != 0 {
			t.Fatalf("round %d: an hour-long timer's callback ran %d times: a stale fire ran it", round, n)
		}
		if !b.Stop() {
			t.Fatalf("round %d: Stop on the next arming = false, want true", round)
		}
		if n := first.Load(); (stopped && n != 0) || (!stopped && n != 1) {
			t.Fatalf("round %d: Stop = %v and the callback ran %d times", round, stopped, n)
		}
	}
}

// TestTimerStaleHandleAfterReuse: a handle kept past its timer's fire
// stops nothing once the node is armed again, and the new arming still
// fires.
func TestTimerStaleHandleAfterReuse(t *testing.T) {
	for round := 0; round < 20; round++ {
		ch := make(chan struct{}, 1)
		old := AfterFunc(0, func(any, int64) { ch <- struct{}{} }, nil, 0)
		<-ch
		// Arm and hold timers until one reuses the fired node; a timer
		// armed elsewhere in the process may take it first.
		var held []Timer
		var reused atomic.Int32
		var again Timer
		for i := 0; i < 100 && again == (Timer{}); i++ {
			runtime.Gosched() // let the fire finish recycling its node
			if tm := AfterFunc(20*time.Millisecond, func(any, int64) { reused.Add(1) }, nil, 0); tm.n == old.n {
				again = tm
			} else {
				held = append(held, tm)
			}
		}
		for _, tm := range held {
			tm.Stop()
		}
		if again == (Timer{}) {
			continue
		}
		if old.Stop() {
			t.Fatal("a stale handle stopped its node's next arming")
		}
		eventually(t, "the reused node fires", func() bool { return reused.Load() == 1 })
		return
	}
	t.Fatal("the fired node was never armed again")
}

// TestTimerManyTimers arms timers across a range of delays and checks
// each fires exactly once.
func TestTimerManyTimers(t *testing.T) {
	const n = 500
	var fired [n]atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		d := time.Duration(1+(i*7)%200) * time.Millisecond
		AfterFunc(d, func(_ any, idx int64) {
			fired[idx].Add(1)
			wg.Done()
		}, nil, int64(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timers did not all fire")
	}
	for i := range fired {
		if got := fired[i].Load(); got != 1 {
			t.Fatalf("timer %d fired %d times", i, got)
		}
	}
}

// TestTimerStopUnderFire storms arm/stop against short timers, some due
// at once: every arming either fires once or is stopped, never both and
// never neither, and a Stop racing a fire never acts on the node's next
// arming (the race detector sees one that does).
func TestTimerStopUnderFire(t *testing.T) {
	var fired, stopped atomic.Int64
	const n = 400
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tm := AfterFunc(time.Duration((seed+i)%3)*time.Millisecond,
					func(any, int64) { fired.Add(1) }, nil, 0)
				if i%2 == 0 {
					time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
				}
				if tm.Stop() {
					stopped.Add(1)
				}
			}
		}(g * 13)
	}
	wg.Wait()
	eventually(t, "every arming fired or was stopped", func() bool { return fired.Load()+stopped.Load() == 4*n })
	time.Sleep(10 * time.Millisecond)
	if got := fired.Load() + stopped.Load(); got != 4*n {
		t.Fatalf("fired(%d) + stopped(%d) = %d, want %d", fired.Load(), stopped.Load(), got, 4*n)
	}
}

// TestTimerAllocs: arming and stopping a timer, and arming one and
// letting it fire, allocate nothing once the free list holds a node.
func TestTimerAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	nop := func(any, int64) {}
	if a := testing.AllocsPerRun(1000, func() { AfterFunc(time.Hour, nop, nil, 0).Stop() }); a != 0 {
		t.Errorf("arm+stop: %v allocs, want 0", a)
	}
	ch := make(chan struct{}, 1)
	send := func(c any, _ int64) { c.(chan struct{}) <- struct{}{} }
	if a := testing.AllocsPerRun(1000, func() { AfterFunc(0, send, ch, 0); <-ch }); a != 0 {
		t.Errorf("arm+fire: %v allocs, want 0", a)
	}
}
