package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests pin the pooled call frame's proved-drained recycling
// discipline (see callFrame in call.go) under the racy schedules that
// could corrupt a recycled frame: early returns with losers still in
// flight, caller-held outcome slices, and caller cancellation racing a
// timer-armed hedge fire. Run with -race -count=5.

// TestFrameRecycleEarlyReturnSlowLoser drives a group whose loser
// IGNORES cancellation and stays in flight long after Do returned. The
// loser's reference must pin the frame — concurrent and subsequent
// calls on the same group must never observe its writes — and the frame
// must still recycle (not leak) once the loser finally delivers.
func TestFrameRecycleEarlyReturnSlowLoser(t *testing.T) {
	gate := coretest.NewGate()
	var mu sync.Mutex
	blocked := 0
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRoundRobin}, WithSeed(1))
	g.Add("fast", func(ctx context.Context) (int, error) { return 1, nil })
	// Deliberately deaf to ctx: the copy stays in flight until the gate
	// opens, holding its frame reference the whole time.
	g.Add("deaf", func(ctx context.Context) (int, error) {
		mu.Lock()
		blocked++
		mu.Unlock()
		<-gate.C()
		return 2, nil
	})

	ctx := context.Background()
	const calls = 200
	for i := 0; i < calls; i++ {
		res, err := g.Do(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != 1 {
			t.Fatalf("call %d: won %d, want the fast replica's 1", i, res.Value)
		}
	}
	mu.Lock()
	inFlight := blocked
	mu.Unlock()
	if inFlight == 0 {
		t.Fatal("round-robin never launched the deaf replica; test is vacuous")
	}
	// Release every parked loser; their deliveries drain into frames that
	// may already have been reused many times over.
	gate.Release()
	// One more burst after the drain to shake out corruption.
	for i := 0; i < calls; i++ {
		if res, err := g.Do(ctx); err != nil || (res.Value != 1 && res.Value != 2) {
			t.Fatalf("post-release call %d: (%v, %v)", i, res, err)
		}
	}
}

// TestFrameRecycleCollectOutcomesAliasing pins that a caller-held
// []Outcome from WithCollectOutcomes never observes a recycled frame's
// data: the engine appends copies into the caller's slice, so hammering
// the group afterwards (recycling the same frame) must leave the held
// outcomes bit-identical.
func TestFrameRecycleCollectOutcomesAliasing(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 3, Selection: SelectRoundRobin}, WithSeed(1))
	g.Add("a", coretest.Instant("alpha"))
	g.Add("b", coretest.Instant("beta"))
	g.Add("c", coretest.Instant("gamma"))
	ctx := context.Background()

	var outs []Outcome[string]
	if _, err := g.Do(ctx, WithQuorum(3), WithCollectOutcomes(&outs)); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("collected %d outcomes, want 3", len(outs))
	}
	held := append([]Outcome[string](nil), outs...)

	// Recycle the frame hard, including through the quorum-failure path
	// (whose QuorumError clones out of the frame's inline scratch).
	boom := errors.New("boom")
	g.Add("bad", coretest.Fail[string](boom))
	var spare []Outcome[string]
	for i := 0; i < 200; i++ {
		g.Do(ctx)
		g.Do(ctx, WithQuorum(4), WithCollectOutcomes(&spare)) // fails: bad replica blocks the quorum
	}
	for i, o := range held {
		if o.Value != outs[i].Value || o.Err != outs[i].Err || o.Index != outs[i].Index {
			t.Fatalf("held outcome %d mutated by frame reuse: %+v vs %+v", i, o, outs[i])
		}
	}
	for _, o := range held {
		switch o.Value {
		case "alpha", "beta", "gamma":
		default:
			t.Fatalf("held outcome has foreign value %q", o.Value)
		}
	}
}

// TestFrameRecycleQuorumErrorOutcomes pins the same aliasing guarantee
// for the outcomes a *QuorumError carries when the caller did NOT pass
// WithCollectOutcomes: they are backed by the frame's inline scratch at
// collection time and must be cloned before the frame recycles.
func TestFrameRecycleQuorumErrorOutcomes(t *testing.T) {
	boom := errors.New("boom")
	g := NewStrategyGroup[string](Fixed{Copies: 2, Selection: SelectRoundRobin}, WithSeed(1))
	g.Add("ok", coretest.Instant("ok"))
	g.Add("bad", coretest.Fail[string](boom))
	ctx := context.Background()

	_, err := g.Do(ctx, WithQuorum(2))
	var qe *QuorumError[string]
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuorumError", err)
	}
	held := append([]Outcome[string](nil), qe.Outcomes...)
	for i := 0; i < 200; i++ {
		g.Do(ctx)
		g.Do(ctx, WithQuorum(2))
	}
	if len(qe.Outcomes) != len(held) {
		t.Fatalf("QuorumError outcomes length changed: %d vs %d", len(qe.Outcomes), len(held))
	}
	for i := range held {
		if held[i].Value != qe.Outcomes[i].Value || held[i].Index != qe.Outcomes[i].Index {
			t.Fatalf("QuorumError outcome %d mutated by frame reuse: %+v vs %+v", i, held[i], qe.Outcomes[i])
		}
	}
}

// TestFrameRecycleCancelRacesWheelHedge races caller cancellation
// against a hedge deadline: the hedge delay equals the context watch's
// delay, and the context is cancelled from another goroutine at
// roughly the same time. Whichever way each race lands, the call must
// return promptly, the stale hedge event must be ignored or drained,
// and the frame must be safe to reuse immediately.
func TestFrameRecycleCancelRacesWheelHedge(t *testing.T) {
	gate := coretest.NewGate()
	defer gate.Release()
	g := NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: watchDelay, Selection: SelectRoundRobin},
		WithSeed(1))
	// Both replicas park until cancelled, so every call rides its hedge
	// timer and only cancellation completes it.
	g.Add("p1", coretest.Blocked(1, gate))
	g.Add("p2", coretest.Blocked(2, gate))

	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			// No sleep: the cancel races the ~1ms timer fire through the
			// goroutine scheduler, landing before, during, and after it
			// across iterations.
			cancel()
		}()
		_, err := g.Do(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: err = %v, want context.Canceled", i, err)
		}
		cancel()
	}

	// Open the gate and issue one more call: the pool must hold no
	// poisoned frame, and a released replica wins with its value.
	gate.Release()
	res, err := g.Do(context.Background(), WithStrategyOverride(FullReplicate{}))
	if err != nil || (res.Value != 1 && res.Value != 2) {
		t.Fatalf("post-race call: (%+v, %v)", res, err)
	}
}

// TestDoValueAllocs pins what a call of two copies over function
// replicas allocates: exactly the 2 its blocking copies share — the
// cancellation channel and the derived context — through DoValue, through
// a zero-option Do, and with an armed hedge that never fires because
// the primary wins (arming and stopping it allocates nothing).
func TestDoValueAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	three := func(s Strategy) *Group[int] {
		g := NewStrategyGroup[int](s, WithSeed(1))
		g.Add("a", coretest.Instant(1))
		g.Add("b", coretest.Instant(2))
		g.Add("c", coretest.Instant(3))
		return g
	}
	ctx := context.Background()
	random := three(Fixed{Copies: 2, Selection: SelectRandom})
	hedged := three(Fixed{Copies: 2, HedgeDelay: time.Second})
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"DoValue", func() error { _, err := random.DoValue(ctx); return err }},
		{"Do", func() error { _, err := random.Do(ctx); return err }},
		{"hedged, primary wins", func() error {
			res, err := hedged.Do(ctx)
			if err == nil && res.Launched != 1 {
				err = fmt.Errorf("launched %d copies, want the primary alone", res.Launched)
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := func() {
				if err := tc.call(); err != nil {
					t.Fatal(err)
				}
				// AllocsPerRun pins GOMAXPROCS to 1, so the losing copy of
				// this call has not run yet when the next call's pool.Get
				// executes — its reference pins the frame and every Get
				// would miss. Yielding lets the loser drain and recycle the
				// frame, measuring the warm steady state that concurrent
				// callers see.
				runtime.Gosched()
			}
			// Warm the frame pool; each frame makes its timer once.
			for i := 0; i < 100; i++ {
				call()
			}
			if avg := testing.AllocsPerRun(500, call); avg != 2 {
				t.Errorf("allocates %.2f/op, want exactly 2", avg)
			}
		})
	}
}

// TestFrameMissAllocs: a call that finds its group's frame pool empty
// allocates the frame and its results channel (header and buffer, as
// for any channel of pointer-carrying elements) and nothing more — a
// started copy's slot lives in the frame up to frameInline copies.
func TestFrameMissAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	echo := func(_ context.Context, arg int) (int, error) { return arg, nil }
	g := NewStrategyKeyedGroup[int, int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(1))
	for _, name := range []string{"a", "b", "c"} {
		g.AddStarter(name, echo, &echoStarter{})
	}
	ctx := context.Background()
	avg := testing.AllocsPerRun(200, func() {
		for g.frames.Get() != nil { // empty the pool: this call misses
		}
		if res, err := g.Do(ctx, 7); err != nil || res.Value != 7 {
			t.Fatalf("Do = (%d, %v)", res.Value, err)
		}
	})
	if avg != 3 {
		t.Errorf("a call on an empty frame pool allocates %.2f, want 3: the frame and its results channel's header and buffer", avg)
	}
}

// TestDoValueSemantics pins that DoValue is exactly Do minus the
// metadata: same winner, same error taxonomy.
func TestDoValueSemantics(t *testing.T) {
	boom := errors.New("boom")
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRoundRobin}, WithSeed(1))
	g.Add("bad", coretest.Fail[int](boom))
	g.Add("good", coretest.Instant(7))
	ctx := context.Background()
	v, err := g.DoValue(ctx)
	if err != nil || v != 7 {
		t.Fatalf("DoValue = (%d, %v), want (7, nil)", v, err)
	}

	// All replicas failing: joined ReplicaErrors, same as Do.
	gf := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRoundRobin})
	gf.Add("b1", coretest.Fail[int](boom))
	gf.Add("b2", coretest.Fail[int](boom))
	if _, err := gf.DoValue(ctx); !errors.Is(err, boom) {
		t.Fatalf("failing DoValue err = %v, want wrapped %v", err, boom)
	}
	var re ReplicaError
	if _, err := gf.DoValue(ctx); !errors.As(err, &re) {
		t.Fatalf("failing DoValue err = %v, want ReplicaError detail", err)
	}

	// Empty group.
	ge := NewStrategyGroup[int](Fixed{Copies: 2})
	if _, err := ge.DoValue(ctx); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("empty DoValue err = %v, want ErrNoReplicas", err)
	}
}
