package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestAsyncTransitionEveryOrder steps a two-copy call over held starters
// through every order of its events, calling the frame's transition
// (callFrame.on) directly: no goroutine of its own, no sleep, no timer
// that fires. The hedge delay is an hour, so the frame's timer never
// fires by itself; the test hands on one timer event past the hedge
// deadline, and every instant, from a clock of its own.
//
// An order is a choice, at each step, among what is enabled then:
//   - a started copy's reply, claimed and completed as a connection's
//     reader does it: a success (offered to Drop first, so a success on
//     a settled call is dropped), an error, or a miss (the negative
//     answer, a plain error where the call takes none);
//   - on taking the oldest queued completion (the wait's receive);
//   - the timer event, once;
//   - the caller's cancellation, once. The caller's context is done from
//     the start, so the frame watches it at once and arms no 1 ms watch;
//     the cancel event is the moment the wait's select takes it;
//   - at the decision, for each copy still out, its Cancel winning (the
//     copy is withdrawn) or losing (its reply was claimed just before and
//     arrives after the decision, a straggler). A write's Starter refuses
//     every Cancel and never offers Drop, as memkv's putStarter does, so
//     each of its copies still out at the decision is a straggler.
//
// Each order's result is compared with stepSpec, a sequential model of
// the call run on the same choices, and each must: complete, drop or
// withdraw every launched copy exactly once and start no other, report
// every launched copy to the group's per-copy hook exactly once, recycle
// the frame once, with its last straggler, and return the governor's
// in-flight count to 0. Each value is followed too: copy i's success
// carries 10+i, distinct per copy, and every success completed (not
// dropped) must end exactly once — returned as the result's value or in
// a *QuorumError's outcomes, or carried by its report — while no
// failure, miss, dropped or withdrawn copy's report carries a value. The
// configurations and their orders:
// Fixed{Copies: 2} 546, a one-hour hedge 265, WithQuorum(2) 442,
// WithNegativeAnswer 442, WithQuorum(2) with WithNegativeAnswer (memkv's
// quorum read) 546, and a write over two copies, 492 at quorum 1 and
// 390 at quorum 2: 3 123 orders in all.
func TestAsyncTransitionEveryOrder(t *testing.T) {
	total := 0
	for _, cfg := range []stepConfig{
		{name: "Fixed{Copies: 2}", q: 1, orders: 546},
		{name: "hedged", q: 1, hedged: true, orders: 265},
		{name: "WithQuorum(2)", q: 2, orders: 442},
		{name: "WithNegativeAnswer", q: 1, negative: true, orders: 442},
		{name: "WithQuorum(2), WithNegativeAnswer", q: 2, negative: true, orders: 546},
		{name: "write, quorum 1", q: 1, write: true, orders: 492},
		{name: "write, quorum 2", q: 2, write: true, orders: 390},
	} {
		var c chooser
		orders := 0
		for {
			stepOrder(t, cfg, &c)
			orders++
			if !c.next() {
				break
			}
		}
		if orders != cfg.orders {
			t.Errorf("%s: %d orders, want %d", cfg.name, orders, cfg.orders)
		}
		total += orders
	}
	if total != 3123 {
		t.Errorf("%d orders in all, want 3 123", total)
	}
}

var (
	errStepFailed = errors.New("failed")
	errStepMiss   = errors.New("miss")
)

// The kinds of a copy's reply.
const (
	replyOK = iota
	replyErr
	replyMiss
	replyKinds
)

type stepConfig struct {
	name     string
	q        int
	hedged   bool
	negative bool
	// write makes every Cancel refuse and offers no Drop.
	write  bool
	orders int
}

// chooser enumerates schedules depth first, as a stateless model
// checker does: each run replays the choices of the one before up to
// its last choice point with an untried option, takes that option, and
// takes option 0 at every choice point after it.
type chooser struct {
	picks, widths []int
	at            int
}

// pick returns the run's choice among n options.
func (c *chooser) pick(n int) int {
	if c.at == len(c.picks) {
		c.picks, c.widths = append(c.picks, 0), append(c.widths, n)
	} else if c.widths[c.at] != n {
		panic(fmt.Sprintf("choice point %d offered %d options on replay, %d before", c.at, n, c.widths[c.at]))
	}
	c.at++
	return c.picks[c.at-1]
}

// next moves to the following schedule, reporting false once every
// schedule has run.
func (c *chooser) next() bool {
	for i := c.at - 1; i >= 0; i-- {
		if c.picks[i]+1 < c.widths[i] {
			c.picks[i]++
			c.picks, c.widths, c.at = c.picks[:i+1], c.widths[:i+1], 0
			return true
		}
	}
	return false
}

// stepStarter is a held starter whose Cancel the schedule decides:
// winning, it withdraws the copy; losing, the copy's reply was claimed
// just before, and the reply is owed. A write's always loses.
type stepStarter struct {
	*heldStarter
	c     *chooser
	owed  bool
	write bool
}

func (s *stepStarter) Cancel(tk Ticket) bool {
	s.mu.Lock()
	if s.out && (s.write || s.c.pick(2) == 1) {
		s.out, s.owed = false, true
	}
	s.mu.Unlock()
	return s.heldStarter.Cancel(tk)
}

// replyable reports whether the copy's reply may come now: it is out and
// the call undecided, or it is owed.
func (s *stepStarter) replyable(decided bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return (s.out && !decided) || s.owed
}

// reply claims the copy and completes it with a reply of kind k,
// reporting whether a success was dropped.
func (s *stepStarter) reply(k, v int) (dropped bool) {
	s.mu.Lock()
	sink, slot := s.sink, s.slot
	s.out, s.owed = false, false
	s.mu.Unlock()
	switch k {
	case replyOK:
		if !s.write && sink.Drop(slot) {
			s.drops.Add(1)
			return true
		}
		sink.Complete(slot, v, nil)
	case replyErr:
		sink.Complete(slot, 0, errStepFailed)
	case replyMiss:
		sink.Complete(slot, 0, errStepMiss)
	}
	s.completes.Add(1)
	return false
}

// stepOrder runs the call once, on the schedule c replays and extends.
func stepOrder(t *testing.T, cfg stepConfig, c *chooser) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s, schedule %v: panic: %v", cfg.name, c.picks[:c.at], r)
		}
	}()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s, schedule %v: %s", cfg.name, c.picks[:c.at], fmt.Sprintf(format, args...))
	}
	gov := NewGovernor(100, 0) // never gates
	g := NewStrategyGroup[int](Fixed{Copies: 2})
	var reports [2]int
	var carried []int // the values reports carried
	fr := &callFrame[struct{}, int]{pool: new(sync.Pool), n: 2, quorum: cfg.q, gov: gov,
		done: func(c CopyDone[struct{}, int]) {
			i := int(c.Replica[0] - 'a')
			reports[i]++
			if c.Value != 0 {
				if c.Err != nil || c.Value != 10+i {
					fail("copy %d reported value %d with error %v", i, c.Value, c.Err)
				}
				carried = append(carried, c.Value)
			}
		}}
	fr.refs.Store(1)
	fr.ensureChan(2)
	picked := fr.pickedSlice(2)
	var ss [2]*stepStarter
	for i := range ss {
		ss[i] = &stepStarter{heldStarter: newHeldStarter(), c: c, write: cfg.write}
		picked[i] = g.AddStarter(string(rune('a'+i)), func(context.Context, struct{}) (int, error) {
			panic("a held starter's blocking form was run")
		}, ss[i])
	}
	if cfg.hedged {
		fr.delays = fr.delaysSlice(2)
		fr.delays[0], fr.delays[1] = time.Hour, time.Hour
	}
	if cfg.negative {
		fr.negative = errStepMiss
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Unix(1_000_000, 0)
	now := start
	spec := newStepSpec(cfg, start)
	fr.begin(ctx, now)

	const (
		actStep = iota
		actTimer
		actCancel
		actReply // + copy*replyKinds + kind
	)
	decided, timed, cancelled := false, false, false
	var completed, returned []int // the successes' values
	for {
		var acts []int
		if !decided {
			if len(fr.results) > 0 {
				acts = append(acts, actStep)
			}
			if !timed {
				acts = append(acts, actTimer)
			}
			if !cancelled {
				acts = append(acts, actCancel)
			}
		}
		for i, s := range ss {
			if s.replyable(decided) {
				for k := range replyKinds {
					acts = append(acts, actReply+i*replyKinds+k)
				}
			}
		}
		if len(acts) == 0 {
			break
		}
		now = now.Add(time.Millisecond)
		var done bool
		switch a := acts[c.pick(len(acts))]; a {
		case actStep:
			done = fr.on(ctx, <-fr.results, now)
			spec.step(now)
		case actTimer:
			timed = true
			now = now.Add(time.Hour)
			done = fr.on(ctx, indexed[int]{timer: true}, now)
			spec.timer()
		case actCancel:
			cancelled = true
			done = fr.on(ctx, indexed[int]{cancel: true}, now)
			spec.cancel()
		default:
			i, k := (a-actReply)/replyKinds, (a-actReply)%replyKinds
			dropped := ss[i].reply(k, 10+i)
			if want := spec.reply(i, k); dropped != want {
				fail("copy %d's success dropped %v, want %v", i, dropped, want)
			}
			if k == replyOK && !dropped {
				completed = append(completed, 10+i)
			}
		}
		if decided = decided || done; decided != spec.decided {
			fail("the call decided %v, want %v", decided, spec.decided)
		}
		if done {
			res, err := fr.res, fr.err
			fr.release(1)
			if !reflect.DeepEqual(res, spec.res) || !reflect.DeepEqual(err, spec.err) {
				fail("result (%+v, %v), want (%+v, %v)", res, err, spec.res, spec.err)
			}
			returned = returnedValues(res, err)
		}
		last := decided && !ss[0].replyable(true) && !ss[1].replyable(true)
		if recycled(fr) != last {
			fail("frame recycled %v (%d references) with the call decided %v and stragglers out %v",
				recycled(fr), fr.refs.Load(), decided, !last)
		}
	}
	for i, s := range ss {
		started, want := len(s.started), 0
		if i < spec.launched {
			want = 1
		}
		if started != want {
			fail("copy %d started %d times, want %d", i, started, want)
		}
		if n := s.completes.Load() + s.drops.Load() + s.withdrawn.Load(); n != int64(started) {
			fail("copy %d completed %d, dropped %d, withdrawn %d times; want %d in all",
				i, s.completes.Load(), s.drops.Load(), s.withdrawn.Load(), started)
		}
		if reports[i] != started {
			fail("copy %d reported %d times, started %d", i, reports[i], started)
		}
	}
	if n := gov.Stats().InFlight; n != 0 {
		fail("%d copies in flight on the governor, want 0", n)
	}
	ends := map[int]int{}
	for _, v := range append(returned, carried...) {
		ends[v]++
	}
	for _, v := range completed {
		if ends[v] != 1 {
			fail("copy %d's success ended %d times (returned %v, reported %v), want once", v-10, ends[v], returned, carried)
		}
		delete(ends, v)
	}
	if len(ends) > 0 {
		fail("values %v returned or reported, but no copy completed them (returned %v, reported %v)", ends, returned, carried)
	}
}

// returnedValues is what a caller receives of a call's successes: the
// result's value, or the successes a *QuorumError carries.
func returnedValues(res Result[int], err error) []int {
	if err == nil {
		return []int{res.Value}
	}
	var vs []int
	var qe *QuorumError[int]
	if errors.As(err, &qe) {
		for _, o := range qe.Outcomes {
			if o.Err == nil {
				vs = append(vs, o.Value)
			}
		}
	}
	return vs
}

// stepSpec is the sequential specification of a two-copy call, run on
// the same choices as the frame: no channel, no reference, no timer.
// Copy 0 starts at once, copy 1 with it unless hedged; a hedged copy 1
// starts at the timer event, or once every started copy has completed
// with the call undecided. Completions queue in arrival order and are
// taken one per step. A success or a negative answer is an answer; the
// call succeeds at its q-th answer if one of them was a success (the
// first success is its value, its latency the time since the start),
// fails with the first negative answer if none was, and fails once
// more than n−q copies failed; the caller's cancellation ends it with
// context.Canceled. Once q successes are queued, a success that arrives
// is dropped, except a write's. Launched counts the copies started; Cancelled those not
// completed, taken or queued, at the decision.
type stepSpec struct {
	cfg             stepConfig
	start           time.Time
	launched        int
	queue           []stepDone
	taken, wins, ok int
	first           int
	answer          error
	errs            []error
	outs            []Outcome[int]
	decided         bool
	res             Result[int]
	err             error
}

// stepDone is one queued completion in the spec.
type stepDone struct{ copy, kind int }

func newStepSpec(cfg stepConfig, start time.Time) *stepSpec {
	s := &stepSpec{cfg: cfg, start: start, launched: 2, first: -1}
	if cfg.hedged {
		s.launched = 1
	}
	return s
}

func (s *stepSpec) reply(i, k int) (dropped bool) {
	if k == replyOK {
		dropped = s.ok >= s.cfg.q && !s.cfg.write
		s.ok++
	}
	if !s.decided {
		s.queue = append(s.queue, stepDone{i, k})
	}
	return dropped
}

func (s *stepSpec) step(now time.Time) {
	d := s.queue[0]
	s.queue = s.queue[1:]
	s.taken++
	name := string(rune('a' + d.copy))
	var err error
	switch d.kind {
	case replyOK:
		s.wins++
		if s.first < 0 {
			s.first = d.copy
		}
	case replyErr:
		err = ReplicaError{Name: name, Attempt: d.copy, Err: errStepFailed}
		s.errs = append(s.errs, err)
	case replyMiss:
		err = ReplicaError{Name: name, Attempt: d.copy, Err: errStepMiss}
		if s.cfg.negative {
			s.wins++
			if s.answer == nil {
				s.answer = err
			}
		} else {
			s.errs = append(s.errs, err)
		}
	}
	v := 0
	if d.kind == replyOK {
		v = 10 + d.copy
	}
	s.outs = append(s.outs, Outcome[int]{Value: v, Err: err, Index: d.copy, Latency: now.Sub(s.start)})
	switch {
	case s.wins == s.cfg.q && s.first >= 0:
		s.decide(Result[int]{Value: 10 + s.first, Index: s.first, Latency: now.Sub(s.start)}, nil)
	case s.wins == s.cfg.q:
		s.decide(Result[int]{}, errors.Join(s.answer))
	case len(s.errs) > 2-s.cfg.q && s.cfg.q == 1:
		s.decide(Result[int]{}, errors.Join(s.errs...))
	case len(s.errs) > 2-s.cfg.q:
		s.decide(Result[int]{}, &QuorumError[int]{Need: s.cfg.q, Wins: s.wins, Outcomes: s.outs, Err: errors.Join(s.errs...)})
	case s.taken == s.launched && s.launched < 2:
		s.launched = 2
	}
}

func (s *stepSpec) timer() {
	if s.cfg.hedged {
		s.launched = 2
	}
}

func (s *stepSpec) cancel() { s.decide(Result[int]{}, context.Canceled) }

func (s *stepSpec) decide(res Result[int], err error) {
	res.Launched = s.launched
	res.Cancelled = s.launched - s.taken - len(s.queue)
	s.decided, s.res, s.err = true, res, err
}
