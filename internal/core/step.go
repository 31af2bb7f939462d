package core

import (
	"context"
	"time"
)

// This file is the stepping entrance: a DoPicked call that no goroutine
// waits on, driven by the events of a simulator (internal/queueing runs
// the paper's §2.1 model through it), on the simulator's clock. The call
// is the engine's own — plan, schedule, governor, begin and on — and
// only its wait differs: pump, where a live call has wait.

// Clock is what a stepped call reads its instants from and makes its
// one timer on (StepPicked). A live call runs on the wall clock, which
// *time.Timer serves.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a Clock's timer, with *time.Timer's Reset and Stop: each
// reports whether the timer was pending, a fire it withdrew.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// now reads the frame's clock.
func (fr *callFrame[K, T]) now() time.Time {
	if fr.clock == nil {
		return time.Now()
	}
	return fr.clock.Now()
}

// afterFunc makes the frame's timer on its clock.
func (fr *callFrame[K, T]) afterFunc(d time.Duration, f func()) Timer {
	if fr.clock == nil {
		return time.AfterFunc(d, f)
	}
	return fr.clock.AfterFunc(d, f)
}

// StepPicked is DoPicked stepped on clk instead of waited on. It plans
// the call as DoPicked does — the strategy's fan-out and schedule, the
// governor's sample and gate over the whole group's size, every per-call
// option — begins it at clk.Now() and returns. From then on each event
// is handed to the call's transition as it is queued, on the goroutine
// that queues it: a copy's completion at the instant its Complete read
// off clk, a fire of the call's timer (made on clk) at clk's reading
// then. done is called once with the outcome, from the event that
// decides the call; a copy still out then runs on until it completes,
// unless its Starter withdraws it.
//
// It returns how many of the call's copies are on its schedule; the rest
// a governor withheld, each launched only if every copy out has failed
// (see call.go). An error means the call was not made and done is never
// called.
//
// A stepped call is meant for a simulator's single goroutine. Every
// picked member must have a Starter (AddStarter) that accepts every copy
// and completes it on that goroutine, as an event of clk: a member
// without one, or a declined copy, would run its blocking replica on a
// goroutine of its own. The call watches no context.
func (g *KeyedGroup[K, T]) StepPicked(clk Clock, arg K, picked []Handle[K, T], done func(Result[T], error), opts ...CallOption) (int, error) {
	p, err := g.planPicked(picked, opts)
	if err != nil {
		return 0, err
	}
	fr := g.frameFor(arg, &p, picked[:p.k])
	fr.clock, fr.tm = clk, nil
	fr.begin(context.Background(), clk.Now())
	fr.finish = func() {
		res, err := fr.res, fr.err
		g.settle(&p, fr.picked[res.Index].m.name, &res, err)
		fr.leave()
		done(res, err)
	}
	fr.pump()
	return p.launch, nil
}

// pump is a stepped call's wait loop: run by whatever queued an event —
// a copy's Complete, the timer's fire — and by StepPicked after begin,
// it hands on the events queued so far, each at its instant, and
// finishes the call once on decides it. It waits for nothing. An event
// queued while pump runs (a Starter completing a copy inside Start) is
// left to the pump already running, and a live call, or a stepped one
// already decided, has no finish to pump for.
func (fr *callFrame[K, T]) pump() {
	if fr.finish == nil || fr.pumping {
		return
	}
	fr.pumping = true
	for len(fr.results) > 0 {
		ev := <-fr.results
		if fr.on(context.Background(), ev, fr.instant(ev)) {
			// finish may release the frame: it is the last thing pump
			// does with it.
			finish := fr.finish
			fr.finish, fr.pumping = nil, false
			finish()
			return
		}
	}
	fr.pumping = false
}
