package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests drive the engine's behaviour tables through both ways of
// launching a copy — a function replica on a goroutine, and a Starter
// whose completion arrives in the event loop (see Starter) — and require
// the same answers from each, then pin what only the started form
// promises: no engine allocation, no goroutine, a withdrawn loser, and a
// frame that is never shared however cancel and completion interleave.
// Run with -race -count=5.

// fakeStarter is a Starter over a blocking replica: Start runs fn on a
// goroutine of the fake's own under a context that Cancel cancels, and
// whichever of the copy's end and Cancel claims the ticket first decides
// whether Complete is called — the contract of a real starter, with the
// claim made under one lock like the mux's waiter table. Like the mux's
// reader it offers a successful reply to Drop before Completing it.
type fakeStarter[K, T any] struct {
	fn      ArgReplica[K, T]
	decline atomic.Bool

	mu      sync.Mutex
	next    uint64
	pending map[uint64]context.CancelFunc

	// completed counts copies whose end claimed the ticket; dropped, those
	// of them the sink took without the value.
	started, completed, dropped, withdrawn atomic.Int64
	// blocking counts calls of the member's blocking form (see addAs).
	blocking atomic.Int64
}

func (f *fakeStarter[K, T]) Start(arg K, sink Sink[T], slot int) (Ticket, bool) {
	if f.decline.Load() {
		return Ticket{}, false
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.mu.Lock()
	if f.pending == nil {
		f.pending = make(map[uint64]context.CancelFunc)
	}
	f.next++
	id := f.next
	f.pending[id] = cancel
	f.mu.Unlock()
	f.started.Add(1)
	go func() {
		v, err := f.fn(ctx, arg)
		if !f.claim(id) {
			return
		}
		if err == nil && sink.Drop(slot) {
			f.dropped.Add(1)
		} else {
			sink.Complete(slot, v, err)
		}
		// Last, so that once outstanding reads 0 the dropped count is final.
		f.completed.Add(1)
	}()
	return Ticket{Ref: f, ID: id}, true
}

// claim takes the ticket out of the table, reporting whether it was
// still there, and cancels the copy's context either way it is found.
func (f *fakeStarter[K, T]) claim(id uint64) bool {
	f.mu.Lock()
	cancel, ok := f.pending[id]
	delete(f.pending, id)
	f.mu.Unlock()
	if ok {
		cancel()
	}
	return ok
}

func (f *fakeStarter[K, T]) Cancel(tk Ticket) bool {
	if tk.Ref != any(f) {
		panic("ticket handed to a starter that did not issue it")
	}
	ok := f.claim(tk.ID)
	if ok {
		f.withdrawn.Add(1)
	}
	return ok
}

// outstanding is how many started copies are neither completed nor
// withdrawn.
func (f *fakeStarter[K, T]) outstanding() int64 {
	return f.started.Load() - f.completed.Load() - f.withdrawn.Load()
}

var launchKinds = []string{"function", "starter"}

// addAs registers fn under name as a function replica or, for kind
// "starter", as a member with a fakeStarter whose blocking form counts
// its calls (a multi-copy call must not make any unless Start declines).
func addAs[K, T any](g *KeyedGroup[K, T], kind, name string, fn ArgReplica[K, T]) *fakeStarter[K, T] {
	if kind == "function" {
		g.Add(name, fn)
		return nil
	}
	st := &fakeStarter[K, T]{fn: fn}
	g.AddStarter(name, func(ctx context.Context, arg K) (T, error) {
		st.blocking.Add(1)
		return fn(ctx, arg)
	}, st)
	return st
}

func noArg[T any](fn func(context.Context) (T, error)) ArgReplica[struct{}, T] {
	return func(ctx context.Context, _ struct{}) (T, error) { return fn(ctx) }
}

// eventually polls cond for up to two seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// asyncFixture is one group built for one launch kind.
type asyncFixture struct {
	g        *Group[int]
	starters []*fakeStarter[struct{}, int]
}

func (f *asyncFixture) add(kind, name string, fn func(context.Context) (int, error)) {
	if st := addAs(&f.g.KeyedGroup, kind, name, noArg(fn)); st != nil {
		f.starters = append(f.starters, st)
	}
}

// settled requires every started copy to have been completed or
// withdrawn exactly once, and no blocking call to have been made.
func (f *asyncFixture) settled(t *testing.T) {
	t.Helper()
	for _, st := range f.starters {
		eventually(t, "every started copy completed or withdrawn", func() bool { return st.outstanding() == 0 })
		if n := st.blocking.Load(); n != 0 {
			t.Errorf("a multi-copy call ran a starter member's blocking replica %d times", n)
		}
	}
}

// TestAsyncBehaviourTable is the engine's behaviour table — completion
// rule × launch schedule × accounting — with the launch kind as one more
// axis.
func TestAsyncBehaviourTable(t *testing.T) {
	boom := errors.New("boom")
	ctx := context.Background()
	ranked := func(f *asyncFixture, names ...string) {
		// Rank the members in the order given so that SelectRanked's
		// launch order is the registration order.
		for i, n := range names {
			f.g.Digest(n).Observe(time.Duration(i+1) * time.Millisecond)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, kind string)
	}{
		{"first wins, loser reclaimed and counted", func(t *testing.T, kind string) {
			c := NewCounters()
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2}, WithObserver(c))}
			f.add(kind, "fast", coretest.Instant(1))
			f.add(kind, "stuck", coretest.Blocked(2, coretest.NewGate()))
			ranked(f, "fast", "stuck")
			res, err := f.g.Do(ctx, WithLabel("reads"))
			if err != nil || res.Value != 1 || res.Index != 0 {
				t.Fatalf("Do = (%+v, %v), want the fast replica's 1 at index 0", res, err)
			}
			if res.Launched != 2 || res.Cancelled != 1 {
				t.Errorf("Launched/Cancelled = %d/%d, want 2/1", res.Launched, res.Cancelled)
			}
			eventually(t, "the loser counted as cancelled on its member", func() bool {
				return statsCancelled(f.g.Stats(), "stuck") == 1
			})
			if got := statsCancelled(f.g.Stats(), "fast"); got != 0 {
				t.Errorf("winner's Cancelled = %d, want 0", got)
			}
			if d := f.g.Digest("fast"); d.Count() != 2 { // the ranking seed and this win
				t.Errorf("winner's digest holds %d observations, want 2", d.Count())
			}
			// Observation: what an Observer is told about the call.
			if c.Ops() != 1 || c.Failures() != 0 || c.LaunchedCopies() != 2 || c.CancelledCopies() != 1 {
				t.Errorf("observer saw ops %d failures %d launched %d cancelled %d, want 1 0 2 1",
					c.Ops(), c.Failures(), c.LaunchedCopies(), c.CancelledCopies())
			}
			if reads, _ := c.LabelSnapshot("reads"); c.Wins()["fast"] != 1 || reads.Ops != 1 {
				t.Errorf("observer wins %v, label ops %d", c.Wins(), reads.Ops)
			}
			f.settled(t)
		}},
		{"quorum 2 of 3 with collected outcomes", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 3})}
			f.add(kind, "a", coretest.Instant(1))
			f.add(kind, "b", coretest.Instant(2))
			f.add(kind, "c", coretest.Blocked(3, coretest.NewGate()))
			var outs []Outcome[int]
			res, err := f.g.Do(ctx, WithQuorum(2), WithCollectOutcomes(&outs))
			if err != nil {
				t.Fatal(err)
			}
			if res.Launched != 3 || res.Cancelled != 1 {
				t.Errorf("Launched/Cancelled = %d/%d, want 3/1", res.Launched, res.Cancelled)
			}
			if len(outs) != 2 || outs[0].Err != nil || outs[1].Err != nil || outs[0].Value+outs[1].Value != 3 {
				t.Errorf("collected %+v, want the two instant wins", outs)
			}
			if res.Value != outs[0].Value {
				t.Errorf("Value %d is not the first collected win %d", res.Value, outs[0].Value)
			}
			f.settled(t)
		}},
		{"quorum unreachable carries names and partial outcomes", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 3})}
			f.add(kind, "ok", coretest.Instant(1))
			f.add(kind, "bad1", coretest.Fail[int](boom))
			f.add(kind, "bad2", coretest.Fail[int](boom))
			_, err := f.g.Do(ctx, WithQuorum(2))
			var qe *QuorumError[int]
			if !errors.As(err, &qe) || !errors.Is(err, ErrQuorumUnreachable) || !errors.Is(err, boom) {
				t.Fatalf("err = %v, want a *QuorumError wrapping boom", err)
			}
			var re ReplicaError
			if !errors.As(err, &re) || (re.Name != "bad1" && re.Name != "bad2") {
				t.Errorf("per-replica detail %+v, want a named failing replica", re)
			}
			if len(qe.Outcomes) < 2 {
				t.Errorf("QuorumError carries %d outcomes, want at least the two failures", len(qe.Outcomes))
			}
			f.settled(t)
		}},
		{"all fail: joined ReplicaErrors in the group format", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2})}
			f.add(kind, "b1", coretest.Fail[int](boom))
			f.add(kind, "b2", coretest.Fail[int](boom))
			ranked(f, "b1", "b2")
			res, err := f.g.Do(ctx)
			if !errors.Is(err, boom) || res.Launched != 2 || res.Cancelled != 0 {
				t.Fatalf("Do = (%+v, %v), want boom after 2 launched, 0 cancelled", res, err)
			}
			for _, want := range []string{"replica b1 (copy 0): boom", "replica b2 (copy 1): boom"} {
				if !slices.Contains(strings.Split(err.Error(), "\n"), want) {
					t.Errorf("error %q lacks %q", err, want)
				}
			}
			f.settled(t)
		}},
		{"wheel hedge fires and the hedge wins", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: 2 * time.Millisecond})}
			f.add(kind, "primary", coretest.Blocked(1, coretest.NewGate()))
			f.add(kind, "hedge", coretest.Instant(2))
			ranked(f, "primary", "hedge")
			res, err := f.g.Do(ctx)
			if err != nil || res.Value != 2 || res.Index != 1 || res.Launched != 2 || res.Cancelled != 1 {
				t.Fatalf("Do = (%+v, %v), want the hedge's 2 at index 1, 2 launched, 1 cancelled", res, err)
			}
			f.settled(t)
		}},
		{"sub-tick hedge fires on the runtime timer", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: 50 * time.Microsecond})}
			f.add(kind, "primary", coretest.Blocked(1, coretest.NewGate()))
			f.add(kind, "hedge", coretest.Instant(2))
			ranked(f, "primary", "hedge")
			res, err := f.g.Do(ctx)
			if err != nil || res.Value != 2 || res.Launched != 2 {
				t.Fatalf("Do = (%+v, %v), want the hedge's 2 after 2 launched", res, err)
			}
			f.settled(t)
		}},
		{"fast primary: hedge never launched, token refunded", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: time.Hour})}
			f.add(kind, "primary", coretest.Instant(1))
			f.add(kind, "hedge", coretest.Instant(2))
			ranked(f, "primary", "hedge")
			for i := 0; i < 3; i++ {
				res, err := f.g.Do(ctx)
				if err != nil || res.Value != 1 || res.Launched != 1 || res.Cancelled != 0 {
					t.Fatalf("Do = (%+v, %v), want the primary alone", res, err)
				}
			}
			f.settled(t)
		}},
		{"failed primary launches the next copy at once", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: time.Hour})}
			f.add(kind, "primary", coretest.Fail[int](boom))
			f.add(kind, "hedge", coretest.Instant(2))
			ranked(f, "primary", "hedge")
			res, err := f.g.Do(ctx)
			if err != nil || res.Value != 2 || res.Launched != 2 {
				t.Fatalf("Do = (%+v, %v), want the hedge's 2 without waiting out the hour", res, err)
			}
			f.settled(t)
		}},
		{"caller cancels: bare ctx error, everything reclaimed", func(t *testing.T, kind string) {
			f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2})}
			seen := [2]*coretest.Gate{coretest.NewGate(), coretest.NewGate()}
			f.add(kind, "b1", coretest.CancelReporting(seen[0], coretest.Blocked(1, coretest.NewGate())))
			f.add(kind, "b2", coretest.CancelReporting(seen[1], coretest.Blocked(2, coretest.NewGate())))
			cctx, cancel := context.WithCancel(ctx)
			time.AfterFunc(time.Millisecond, cancel)
			res, err := f.g.Do(cctx)
			if err != context.Canceled || res.Launched != 2 || res.Cancelled != 2 {
				t.Fatalf("Do = (%+v, %v), want bare context.Canceled, 2 launched, 2 cancelled", res, err)
			}
			for _, g := range seen {
				select {
				case <-g.C():
				case <-time.After(2 * time.Second):
					t.Fatal("a reclaimed copy never saw its cancellation")
				}
			}
			f.settled(t)
			for _, st := range f.starters {
				if st.withdrawn.Load() != 1 {
					t.Errorf("started copy withdrawn %d times, want 1", st.withdrawn.Load())
				}
			}
		}},
		{"governor in-flight returns to zero", func(t *testing.T, kind string) {
			gov := NewGovernor(0.99, 0)
			f := &asyncFixture{g: NewStrategyGroup[int](LoadAwareWith(Fixed{Copies: 2}, gov))}
			var entered atomic.Int32
			f.add(kind, "fast", coretest.Instant(1))
			f.add(kind, "stuck", coretest.Counting(&entered, coretest.Blocked(2, coretest.NewGate())))
			for i := 0; i < 20; i++ {
				if res, err := f.g.Do(ctx); err != nil || res.Launched != 2 {
					t.Fatalf("Do = (%+v, %v), want 2 copies under an open governor", res, err)
				}
			}
			// A function replica's goroutine may not have run yet: only
			// once every loser has entered is zero the final count.
			eventually(t, "every loser entered its replica", func() bool { return entered.Load() == 20 })
			eventually(t, "governor in-flight back to 0", func() bool { return gov.Stats().InFlight == 0 })
			f.settled(t)
			if gov.Stats().InFlight != 0 {
				t.Errorf("in-flight = %d after every copy settled", gov.Stats().InFlight)
			}
		}},
	}
	for _, tc := range cases {
		for _, kind := range launchKinds {
			t.Run(tc.name+"/"+kind, func(t *testing.T) { tc.run(t, kind) })
		}
	}
}

// TestAsyncMixedGroup puts a starter and a function replica in one call:
// the blocking copy's derived context is made on demand and still
// cancels the plain loser; a started loser is withdrawn.
func TestAsyncMixedGroup(t *testing.T) {
	ctx := context.Background()
	t.Run("started winner cancels the plain loser", func(t *testing.T) {
		sawCancel := coretest.NewGate()
		f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2})}
		f.add("starter", "fast", coretest.Instant(1))
		f.add("function", "plain", coretest.CancelReporting(sawCancel, coretest.Blocked(2, coretest.NewGate())))
		res, err := f.g.Do(ctx)
		if err != nil || res.Value != 1 || res.Cancelled != 1 {
			t.Fatalf("Do = (%+v, %v), want the starter's 1 with the plain copy cancelled", res, err)
		}
		select {
		case <-sawCancel.C():
		case <-time.After(2 * time.Second):
			t.Fatal("the plain loser's context was never cancelled")
		}
		eventually(t, "plain loser counted", func() bool { return statsCancelled(f.g.Stats(), "plain") == 1 })
		f.settled(t)
	})
	t.Run("plain winner withdraws the started loser", func(t *testing.T) {
		f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2})}
		f.add("function", "fast", coretest.Instant(1))
		f.add("starter", "stuck", coretest.Blocked(2, coretest.NewGate()))
		res, err := f.g.Do(ctx)
		if err != nil || res.Value != 1 || res.Cancelled != 1 {
			t.Fatalf("Do = (%+v, %v), want the plain replica's 1 with the started copy cancelled", res, err)
		}
		if got := f.starters[0].withdrawn.Load(); got != 1 {
			t.Errorf("started loser withdrawn %d times, want 1", got)
		}
		if got := statsCancelled(f.g.Stats(), "stuck"); got != 1 {
			t.Errorf("started loser's member Cancelled = %d, want 1", got)
		}
		f.settled(t)
	})
}

// TestAsyncDeclinedStart pins the fallback: a Starter that declines has
// done nothing, and the engine runs that copy through the member's
// blocking replica under a cancellable context.
func TestAsyncDeclinedStart(t *testing.T) {
	sawCancel := coretest.NewGate()
	f := &asyncFixture{g: NewStrategyGroup[int](Fixed{Copies: 2})}
	f.add("starter", "fast", coretest.Instant(1))
	f.add("starter", "stuck", coretest.CancelReporting(sawCancel, coretest.Blocked(2, coretest.NewGate())))
	for _, st := range f.starters {
		st.decline.Store(true)
	}
	res, err := f.g.Do(context.Background())
	if err != nil || res.Value != 1 || res.Launched != 2 || res.Cancelled != 1 {
		t.Fatalf("Do = (%+v, %v), want 1 from 2 blocking copies, 1 cancelled", res, err)
	}
	select {
	case <-sawCancel.C():
	case <-time.After(2 * time.Second):
		t.Fatal("the declined copy's blocking run was never cancelled")
	}
	for _, st := range f.starters {
		if st.started.Load() != 0 || st.blocking.Load() != 1 {
			t.Errorf("declined starter: started %d, blocking calls %d; want 0 and 1", st.started.Load(), st.blocking.Load())
		}
	}
}

// echoStarter completes every copy with its argument before Start
// returns — the contract allows it — and allocates nothing, so what a
// call over it allocates is the engine's own.
type echoStarter struct{ cancels atomic.Int64 }

func (e *echoStarter) Start(arg int, sink Sink[int], slot int) (Ticket, bool) {
	sink.Complete(slot, arg, nil)
	return Ticket{Ref: e}, true
}

func (e *echoStarter) Cancel(Ticket) bool {
	e.cancels.Add(1)
	return false // always completed already
}

// TestAsyncZeroAllocsNoGoroutines: a 2-copy call over starters makes no
// engine allocation and starts no goroutine, hedged or not; the same
// call over function replicas makes exactly the two a blocking copy
// needs (cancellation channel and derived context).
func TestAsyncZeroAllocsNoGoroutines(t *testing.T) {
	ctx := context.Background()
	echo := func(_ context.Context, arg int) (int, error) { return arg, nil }
	build := func(s Strategy, starters bool) *KeyedGroup[int, int] {
		g := NewStrategyKeyedGroup[int, int](s, WithSeed(1))
		for _, name := range []string{"a", "b", "c"} {
			if starters {
				g.AddStarter(name, echo, &echoStarter{})
			} else {
				g.Add(name, echo)
			}
		}
		return g
	}
	for _, tc := range []struct {
		name     string
		g        *KeyedGroup[int, int]
		want     float64
		routines bool
	}{
		{"starters, both at once", build(Fixed{Copies: 2, Selection: SelectRandom}, true), 0, true},
		{"starters, wheel hedge armed", build(Fixed{Copies: 2, HedgeDelay: time.Second}, true), 0, true},
		{"function replicas, both at once", build(Fixed{Copies: 2, Selection: SelectRandom}, false), 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := func(i int) {
				if res, err := tc.g.Do(ctx, i); err != nil || res.Value != i {
					t.Fatalf("Do(%d) = (%d, %v)", i, res.Value, err)
				}
			}
			for i := 0; i < 100; i++ {
				call(i) // warm the frame pool and the per-frame closures
				runtime.Gosched()
			}
			base := runtime.NumGoroutine()
			i := 0
			avg := testing.AllocsPerRun(500, func() {
				i++
				call(i)
				// One processor: let a function-replica loser finish and
				// recycle its frame (see TestDoValueAllocs).
				runtime.Gosched()
			})
			if avg != tc.want && !coretest.Race() {
				t.Errorf("DoValue allocates %.2f/op, want %.0f", avg, tc.want)
			}
			if tc.routines {
				for i := 0; i < 10000; i++ {
					call(i)
					if n := runtime.NumGoroutine(); n > base {
						t.Fatalf("call %d: %d goroutines, %d before; a started copy is not a goroutine", i, n, base)
					}
				}
			}
		})
	}
}

// TestAsyncCancelRacesComplete makes every loser's completion race the
// winner's Cancel and the call's settling, from many callers at once,
// each asking for its own value: a frame released twice, or recycled
// while a completion is still on its way, hands two calls one frame and
// one of them the other's answer. Every loser ends one of three ways —
// withdrawn, dropped, or decoded and drained — and the per-replica
// counters say which.
func TestAsyncCancelRacesComplete(t *testing.T) {
	c := NewCounters()
	g := NewStrategyKeyedGroup[int, int](Fixed{Copies: 2, Selection: SelectRandom}, WithObserver(c))
	var starters []*fakeStarter[int, int]
	for _, name := range []string{"a", "b", "c"} {
		starters = append(starters, addAs(g, "starter", name, func(_ context.Context, arg int) (int, error) {
			runtime.Gosched() // widen the window between the winner and this copy
			return arg, nil
		}))
	}
	const callers, calls = 8, 1500
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				arg := c*calls + i
				res, err := g.Do(context.Background(), arg)
				if err != nil || res.Value != arg || res.Launched != 2 {
					t.Errorf("Do(%d) = (%+v, %v)", arg, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	var started, completed, dropped, withdrawn int64
	for _, st := range starters {
		eventually(t, "every started copy completed or withdrawn", func() bool { return st.outstanding() == 0 })
		started += st.started.Load()
		completed += st.completed.Load()
		dropped += st.dropped.Load()
		withdrawn += st.withdrawn.Load()
	}
	if started != 2*callers*calls {
		t.Errorf("started %d copies, want %d", started, 2*callers*calls)
	}
	if completed < callers*calls {
		t.Errorf("completed %d copies, fewer than one winner per call", completed)
	}
	if dropped > completed-callers*calls {
		t.Errorf("dropped %d of %d completed copies: more than the losers, a winner's value was skipped", dropped, completed)
	}
	var statDropped, statCancelled int64
	for _, r := range g.Stats().Replicas {
		statDropped += r.Dropped
		statCancelled += r.Cancelled
	}
	if statDropped != dropped || statCancelled != withdrawn {
		t.Errorf("ReplicaStats say %d dropped, %d cancelled; the starters dropped %d and withdrew %d", statDropped, statCancelled, dropped, withdrawn)
	}
	// A call counts as cancelled what was out when it returned: the
	// withdrawn, and the claimed whose completion had yet to land.
	if got := c.CancelledCopies(); got < withdrawn || got > int64(callers*calls) {
		t.Errorf("calls reported %d cancelled copies, want between the %d withdrawn and one per call", got, withdrawn)
	}
	if dropped == 0 || withdrawn == 0 {
		t.Errorf("%d dropped, %d withdrawn: the race never went both ways", dropped, withdrawn)
	}
	t.Logf("%d copies: %d completed (%d of them dropped), %d withdrawn", started, completed, dropped, withdrawn)
}

// TestAsyncFailoverWhenGated: over starters, a call the governor clamps
// to one copy keeps the copy it withheld as a failover in its frame. No
// hedge is armed for it, however long the primary takes; it launches
// when the primary fails, and the call returns its value with two copies
// launched. A primary that answers leaves it unlaunched.
func TestAsyncFailoverWhenGated(t *testing.T) {
	g, hs := heldGroup(2)
	gov := NewGovernor(0.5, 0)
	g.SetStrategy(LoadAwareWith(Fixed{Copies: 2, HedgeDelay: time.Millisecond}, gov))
	call := func() chan Result[int] {
		for i := 0; i < 50; i++ {
			gov.Observe(10)
		}
		done := make(chan Result[int], 1)
		go func() {
			res, err := g.Do(context.Background())
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			done <- res
		}()
		hs[0].awaitStart(t)
		return done
	}

	done := call()
	time.Sleep(20 * time.Millisecond) // twenty hedge delays
	if n := len(hs[1].started); n != 0 {
		t.Fatalf("the withheld copy started while the primary was out: a hedge was armed for it")
	}
	sink, slot := hs[0].claim(t)
	sink.Complete(slot, 0, errors.New("primary down"))
	hs[1].awaitStart(t)
	if hs[1].reply(t, 2) {
		t.Fatal("the failover's reply was dropped; it decides the call")
	}
	if res := <-done; res.Value != 2 || res.Index != 1 || res.Launched != 2 || res.Cancelled != 0 {
		t.Errorf("failing primary: %+v, want the failover's 2 at index 1, two launched", res)
	}

	done = call()
	if hs[0].reply(t, 1) {
		t.Fatal("the primary's reply was dropped; it decides the call")
	}
	if res := <-done; res.Value != 1 || res.Launched != 1 {
		t.Errorf("healthy primary: %+v, want its 1 with one copy launched", res)
	}
	if n := len(hs[1].started); n != 0 {
		t.Errorf("the withheld copy started behind a healthy primary")
	}
	if !gov.Gated() || gov.Stats().InFlight != 0 {
		t.Errorf("governor: gated %v, %d in flight; want gated, 0", gov.Gated(), gov.Stats().InFlight)
	}
}

// TestAsyncAdaptiveHedgeAllocatesAsFixed: a strategy's ScheduleInto reads
// the picked replicas' digests through the call frame itself, so a
// two-copy DoPicked over starters under AdaptiveHedge — both at once
// while cold, or a hedge armed at its fallback delay — allocates no more
// than the same call under Fixed.
func TestAsyncAdaptiveHedgeAllocatesAsFixed(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	ctx := context.Background()
	echo := func(_ context.Context, arg int) (int, error) { return arg, nil }
	allocs := func(s Strategy) float64 {
		g := NewStrategyKeyedGroup[int, int](s)
		picked := []Handle[int, int]{g.AddStarter("a", echo, &echoStarter{}), g.AddStarter("b", echo, &echoStarter{})}
		call := func() {
			if res, err := g.DoPicked(ctx, 7, picked); err != nil || res.Value != 7 {
				t.Fatalf("%v: DoPicked = (%+v, %v)", s, res, err)
			}
		}
		for i := 0; i < 100; i++ {
			call() // warm the frame pool and its timer
		}
		return testing.AllocsPerRun(500, call)
	}
	fixed := allocs(Fixed{Copies: 2})
	cold := int64(1) << 40 // digests never trusted: the fallback delay rules
	for _, s := range []Strategy{
		AdaptiveHedge{Copies: 2, MinSamples: cold},
		AdaptiveHedge{Copies: 2, MinSamples: cold, FallbackDelay: time.Second},
	} {
		if got := allocs(s); got > fixed {
			t.Errorf("%v allocates %.2f/op, Fixed{Copies: 2} %.2f", s, got, fixed)
		}
	}
}
