package core_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
	"redundancy/internal/ring"
)

// These tests pin the single-copy contract of the call engine (see the
// file comment of call.go): a call that resolves to one copy — by
// strategy, governor, fan-out cap or placement — is a plain
// function call on the caller's goroutine under the caller's own
// context, allocates nothing in the engine, and still reports what the
// event loop reported for a one-copy call. They live outside package
// core so that the ring can take part. Run with -race -count=5.

// gatedGovernor returns a governor pushed past its gate.
func gatedGovernor(t *testing.T) *core.Governor {
	t.Helper()
	gov := core.NewGovernor(0.5, 0)
	for i := 0; i < 50; i++ {
		gov.Observe(10)
	}
	if gov.Allow(2) != 1 || !gov.Gated() {
		t.Fatal("governor did not gate under 20x its threshold")
	}
	return gov
}

// TestInlineZeroAllocs reaches k=1 three ways and requires DoValue to
// allocate nothing at all on each.
func TestInlineZeroAllocs(t *testing.T) {
	ctx := context.Background()
	three := func(g *core.Group[int]) *core.Group[int] {
		g.Add("a", coretest.Instant(1))
		g.Add("b", coretest.Instant(2))
		g.Add("c", coretest.Instant(3))
		return g
	}

	fixed := three(core.NewStrategyGroup[int](core.Fixed{Copies: 1}))

	gov := gatedGovernor(t)
	governed := three(core.NewStrategyGroup[int](core.LoadAwareWith(core.Fixed{Copies: 2}, gov)))

	rg := ring.New[string, int](core.Fixed{Copies: 1})
	for i, name := range []string{"a", "b", "c"} {
		rg.Add(name, func(context.Context, string) (int, error) { return i, nil })
	}

	for _, tc := range []struct {
		name string
		call func() (int, error)
	}{
		{"Fixed1", func() (int, error) { return fixed.DoValue(ctx) }},
		{"GovernedGated", func() (int, error) {
			// Every call samples an idle group into the governor's EWMA;
			// keep it past the gate for the whole measurement.
			gov.Observe(10)
			return governed.DoValue(ctx)
		}},
		{"Ring", func() (int, error) {
			res, err := rg.Do(ctx, "some-key")
			return res.Value, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			avg := testing.AllocsPerRun(1000, func() {
				if _, err := tc.call(); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("single-copy DoValue allocates %.2f/op, want 0", avg)
			}
		})
	}
	if !gov.Gated() {
		t.Error("governor reopened during the measurement; GovernedGated did not measure k=1")
	}
}

// TestInlineRunsOnCallerGoroutine pins that the only copy runs on the
// caller's stack — the replica finds this test function among its
// callers — and that ten thousand calls start no goroutine.
func TestInlineRunsOnCallerGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	onStack, extra := 0, 0
	g := core.NewStrategyGroup[int](core.Fixed{Copies: 1})
	g.Add("only", func(context.Context) (int, error) {
		var pcs [32]uintptr
		frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
		for {
			f, more := frames.Next()
			if strings.HasSuffix(f.Function, ".TestInlineRunsOnCallerGoroutine") {
				onStack++
				break
			}
			if !more {
				break
			}
		}
		if runtime.NumGoroutine() > base {
			extra++
		}
		return 1, nil
	})
	const calls = 10_000
	for i := 0; i < calls; i++ {
		if _, err := g.DoValue(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if onStack != calls {
		t.Errorf("replica found the caller's frame on its stack in %d of %d calls", onStack, calls)
	}
	if extra != 0 {
		t.Errorf("%d of %d copies ran with more than the %d goroutines the test started with", extra, calls, base)
	}
	if after := runtime.NumGoroutine(); after > base {
		t.Errorf("goroutines: %d before, %d after %d single-copy calls", base, after, calls)
	}
}

// TestInlineCopyContext pins which context a copy receives: the
// caller's context value itself when it is the only copy, so that
// context.AfterFunc and friends in a replica see a standard-library
// context and start no watcher goroutine, and a derived one — cancelled
// when the call completes — as soon as there is a loser to cancel.
func TestInlineCopyContext(t *testing.T) {
	type ctxKey struct{}
	caller := context.WithValue(context.Background(), ctxKey{}, "caller")
	var got context.Context
	g := core.NewStrategyGroup[int](core.Fixed{Copies: 1, Selection: core.SelectRoundRobin})
	g.Add("a", func(ctx context.Context) (int, error) {
		got = ctx
		return 1, nil
	})
	g.Add("b", coretest.Blocked(2, coretest.NewGate()))

	if _, err := g.Do(caller); err != nil {
		t.Fatal(err)
	}
	if got != caller {
		t.Errorf("k=1: replica received %T, want the caller's context itself", got)
	}
	if got.Err() != nil {
		t.Errorf("k=1: the caller's context is done after the call: %v", got.Err())
	}

	if _, err := g.Do(caller, core.WithStrategyOverride(core.Fixed{Copies: 2, Selection: core.SelectRoundRobin})); err != nil {
		t.Fatal(err)
	}
	if got == caller {
		t.Error("k=2: replica received the caller's context, want one the winner can cancel")
	}
	if got.Value(ctxKey{}) != "caller" {
		t.Error("k=2: the derived context lost the caller's values")
	}
	if !errors.Is(got.Err(), context.Canceled) {
		t.Errorf("k=2: derived context after the call: Err = %v, want Canceled", got.Err())
	}
}

// TestInlineBehaviour is the behaviour table: for each way a one-copy
// call can end, the single-copy path reports what the event loop
// reported when it ran one-copy calls — result, error taxonomy, collected
// outcomes, observation, digest, cancelled counter and governor
// accounting.
func TestInlineBehaviour(t *testing.T) {
	boom := errors.New("boom")
	type env struct {
		g   *core.Group[int]
		obs *[]core.Observation
		gov *core.Governor
	}
	// build makes a governed, observed single-copy group over
	// primary and a spare that ranked selection never reaches.
	build := func(primary core.Replica[int]) env {
		e := env{obs: new([]core.Observation), gov: core.NewGovernor(1000, 0)}
		e.g = core.NewStrategyGroup[int](core.LoadAwareWith(core.Fixed{Copies: 1}, e.gov),
			core.WithObserver(core.ObserverFunc(func(o core.Observation) { *e.obs = append(*e.obs, o) })))
		e.g.Add("p", primary)
		e.g.Add("spare", coretest.Instant(2))
		return e
	}
	// settled checks what every case shares once the call has returned.
	settled := func(t *testing.T, e env, res core.Result[int], err error, cancelled int64) {
		t.Helper()
		if res.Launched != 1 {
			t.Errorf("Launched = %d, want 1", res.Launched)
		}
		if got := e.gov.Stats().InFlight; got != 0 {
			t.Errorf("governor has %d copies in flight after the call, want 0", got)
		}
		if got := e.g.Stats().Replicas[0].Cancelled; got != cancelled {
			t.Errorf("primary's cancelled counter = %d, want %d", got, cancelled)
		}
		if len(*e.obs) != 1 {
			t.Fatalf("%d observations, want 1", len(*e.obs))
		}
		o := (*e.obs)[0]
		if o.Launched != 1 || o.Cancelled != res.Cancelled || o.Latency != res.Latency || o.Err != err || o.Label != "class" {
			t.Errorf("observation %+v does not match result %+v, err %v, label class", o, res, err)
		}
		if (o.Winner == "p") != (err == nil) || (o.Winner == "") != (err != nil) {
			t.Errorf("observation winner = %q with err %v", o.Winner, err)
		}
	}

	t.Run("success", func(t *testing.T) {
		var inFlight int64
		var e env
		e = build(func(context.Context) (int, error) {
			inFlight = e.gov.Stats().InFlight
			time.Sleep(time.Millisecond) // a latency no clock can round to zero
			return 1, nil
		})
		var outs []core.Outcome[int]
		res, err := e.g.Do(context.Background(), core.WithLabel("class"), core.WithCollectOutcomes(&outs))
		if err != nil || res.Value != 1 || res.Index != 0 || res.Cancelled != 0 || res.Latency < time.Millisecond {
			t.Fatalf("Do = (%+v, %v), want value 1 from copy 0 after >= 1ms", res, err)
		}
		settled(t, e, res, err, 0)
		if len(outs) != 1 || outs[0].Value != 1 || outs[0].Err != nil || outs[0].Index != 0 || outs[0].Latency < time.Millisecond {
			t.Errorf("outcomes = %+v, want the one success with its latency", outs)
		}
		if inFlight != 1 {
			t.Errorf("governor saw %d copies in flight during the copy, want 1", inFlight)
		}
		// One clock pair: the digest and the result saw the same duration.
		if d := e.g.Digest("p"); d.Count() != 1 {
			t.Errorf("primary's digest holds %d observations, want 1", d.Count())
		} else if mean, _ := d.Mean(); mean != res.Latency {
			t.Errorf("digest observed %v, result reports %v", mean, res.Latency)
		}
	})

	t.Run("replica error", func(t *testing.T) {
		e := build(coretest.Fail[int](boom))
		var outs []core.Outcome[int]
		res, err := e.g.Do(context.Background(), core.WithLabel("class"), core.WithCollectOutcomes(&outs))
		var re core.ReplicaError
		if !errors.As(err, &re) || re.Name != "p" || re.Attempt != 0 || !errors.Is(err, boom) {
			t.Fatalf("err = %v, want ReplicaError{Name: p, Attempt: 0} wrapping boom", err)
		}
		if want := "replica p (copy 0): boom"; err.Error() != want {
			t.Errorf("err.Error() = %q, want %q", err.Error(), want)
		}
		if res.Cancelled != 0 || res.Latency != 0 {
			t.Errorf("failed call's result = %+v, want nothing but Launched", res)
		}
		settled(t, e, res, err, 0)
		if len(outs) != 1 || !errors.Is(outs[0].Err, boom) || outs[0].Index != 0 {
			t.Errorf("outcomes = %+v, want the one failure", outs)
		}
	})

	t.Run("caller cancel mid-copy", func(t *testing.T) {
		started := make(chan struct{})
		blocked := coretest.Blocked(1, coretest.NewGate())
		e := build(func(ctx context.Context) (int, error) {
			close(started)
			return blocked(ctx)
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-started
			cancel()
		}()
		outs := []core.Outcome[int]{{Value: 99}}
		res, err := e.g.Do(ctx, core.WithLabel("class"), core.WithCollectOutcomes(&outs))
		if err != context.Canceled || !errors.Is(err, ctx.Err()) || res.Cancelled != 1 {
			t.Fatalf("Do = (%+v, %v), want the bare context.Canceled and one copy cancelled", res, err)
		}
		settled(t, e, res, err, 1)
		if len(outs) != 0 {
			t.Errorf("outcomes = %+v, want none: a cancelled copy did not complete", outs)
		}
	})

	t.Run("deadline expiry", func(t *testing.T) {
		e := build(coretest.Blocked(1, coretest.NewGate()))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		res, err := e.g.Do(ctx, core.WithLabel("class"))
		if err != context.DeadlineExceeded || !errors.Is(err, ctx.Err()) || res.Cancelled != 1 {
			t.Fatalf("Do = (%+v, %v), want the bare context.DeadlineExceeded and one copy cancelled", res, err)
		}
		settled(t, e, res, err, 1)
	})

	t.Run("replica panic", func(t *testing.T) {
		e := build(func(context.Context) (int, error) { panic("replica bug") })
		func() {
			defer func() {
				if r := recover(); r != "replica bug" {
					t.Errorf("recovered %v, want the replica's panic on the caller's stack", r)
				}
			}()
			e.g.Do(context.Background())
		}()
		if got := e.gov.Stats().InFlight; got != 0 {
			t.Errorf("governor has %d copies in flight after the panic unwound, want 0", got)
		}
	})
}

// TestInlineFailoverWhenGated: a call the governor clamps to one copy
// keeps the copy it withheld as a failover. Over function replicas the
// failover runs inline, after the copy before it failed: a failing
// primary's call returns the secondary's value with two copies
// launched, every copy failing fails the call with each one's error,
// and a healthy primary's call launches one copy, never runs the
// secondary and allocates nothing.
func TestInlineFailoverWhenGated(t *testing.T) {
	ctx := context.Background()
	down := errors.New("primary down")
	gov := gatedGovernor(t)
	g := core.NewStrategyKeyedGroup[string, int](core.LoadAwareWith(core.Fixed{Copies: 2}, gov))
	var secondaryRuns atomic.Int32
	bad := g.Add("bad", func(context.Context, string) (int, error) { return 0, down })
	worse := g.Add("worse", func(context.Context, string) (int, error) { return 0, down })
	secondary := g.Add("secondary", func(context.Context, string) (int, error) {
		secondaryRuns.Add(1)
		return 2, nil
	})
	healthy := g.Add("healthy", func(context.Context, string) (int, error) { return 1, nil })

	gov.Observe(10)
	var outs []core.Outcome[int]
	res, err := g.DoPicked(ctx, "k", []core.Handle[string, int]{bad, secondary}, core.WithCollectOutcomes(&outs))
	if err != nil || res.Value != 2 || res.Index != 1 || res.Launched != 2 || res.Cancelled != 0 {
		t.Fatalf("failing primary: DoPicked = (%+v, %v), want the secondary's 2 at index 1, two launched", res, err)
	}
	var re core.ReplicaError
	if len(outs) != 2 || !errors.As(outs[0].Err, &re) || re.Name != "bad" || re.Attempt != 0 ||
		outs[1].Err != nil || outs[1].Value != 2 || outs[1].Index != 1 {
		t.Errorf("outcomes = %+v, want the primary's failure, then the secondary's value", outs)
	}

	gov.Observe(10)
	res, err = g.DoPicked(ctx, "k", []core.Handle[string, int]{bad, worse})
	if !errors.Is(err, down) || res.Launched != 2 {
		t.Fatalf("every copy failing: DoPicked = (%+v, %v), want both copies launched and failed", res, err)
	}
	if want := "replica bad (copy 0): primary down\nreplica worse (copy 1): primary down"; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}

	picked := []core.Handle[string, int]{healthy, secondary}
	runs := secondaryRuns.Load()
	avg := testing.AllocsPerRun(1000, func() {
		gov.Observe(10)
		res, err := g.DoPicked(ctx, "k", picked)
		if err != nil || res.Value != 1 || res.Launched != 1 {
			t.Fatalf("healthy primary: DoPicked = (%+v, %v), want its 1 with one copy launched", res, err)
		}
	})
	if avg != 0 && !coretest.Race() {
		t.Errorf("a gated call whose primary answers allocates %.2f/op, want 0", avg)
	}
	if got := secondaryRuns.Load(); got != runs {
		t.Errorf("the secondary ran %d times behind a healthy primary, want 0", got-runs)
	}
	if !gov.Gated() || gov.Stats().InFlight != 0 {
		t.Errorf("governor: gated %v, %d in flight; want gated, 0", gov.Gated(), gov.Stats().InFlight)
	}
}
