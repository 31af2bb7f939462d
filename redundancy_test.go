package redundancy_test

// Tests of the public module-root API. The behavioural test suite lives
// with the implementation in internal/core; these verify the re-exported
// surface works as documented for a downstream importer.

import (
	"context"
	"errors"
	"testing"
	"time"

	"redundancy"
)

// slow is a replica that answers after a second unless cancelled first.
func slow[T any](v T) redundancy.Replica[T] {
	return func(ctx context.Context) (T, error) {
		select {
		case <-time.After(time.Second):
			return v, nil
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

func TestPublicFirst(t *testing.T) {
	g := redundancy.NewStrategyGroup[string](redundancy.FullReplicate{})
	g.Add("slow", slow("slow"))
	g.Add("fast", func(ctx context.Context) (string, error) { return "fast", nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" || res.Launched != 2 {
		t.Errorf("winner %q of %d launched, want fast of 2", res.Value, res.Launched)
	}
}

func TestPublicFirstValue(t *testing.T) {
	g := redundancy.NewStrategyGroup[int](redundancy.FullReplicate{})
	g.Add("only", func(ctx context.Context) (int, error) { return 42, nil })
	v, err := g.DoValue(context.Background())
	if err != nil || v != 42 {
		t.Errorf("DoValue = (%d, %v)", v, err)
	}
}

func TestPublicErrNoReplicas(t *testing.T) {
	_, err := redundancy.NewStrategyGroup[int](redundancy.FullReplicate{}).Do(context.Background())
	if !errors.Is(err, redundancy.ErrNoReplicas) {
		t.Errorf("got %v", err)
	}
}

func TestPublicGroupWithEverything(t *testing.T) {
	counters := redundancy.NewCounters()
	budget := redundancy.NewBudget(1000, 10)
	g := redundancy.NewStrategyGroup[string](
		redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRanked},
		redundancy.WithObserver[string](counters),
		redundancy.WithBudget[string](budget),
		redundancy.WithSeed[string](1),
	)
	g.Add("a", func(ctx context.Context) (string, error) { return "a", nil })
	g.Add("b", func(ctx context.Context) (string, error) { return "b", nil })
	for i := 0; i < 5; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if counters.Ops() != 5 {
		t.Errorf("Ops = %d", counters.Ops())
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestPublicHedged(t *testing.T) {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 2, HedgeDelay: time.Millisecond})
	g.Add("primary", slow(1))
	g.Add("hedge", func(ctx context.Context) (int, error) { return 2, nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 || res.Launched != 2 {
		t.Errorf("hedge winner %d of %d launched, want 2 of 2", res.Value, res.Launched)
	}
}

func TestPublicSelectionStrings(t *testing.T) {
	if redundancy.SelectRanked.String() != "ranked" ||
		redundancy.SelectRandom.String() != "random" ||
		redundancy.SelectRoundRobin.String() != "round-robin" {
		t.Error("Selection.String() wrong")
	}
}

func TestPublicLoadAware(t *testing.T) {
	gs := redundancy.LoadAware(redundancy.Fixed{Copies: 2}, redundancy.DefaultGovernorThreshold)
	g := redundancy.NewStrategyGroup[int](gs)
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("cold load-aware Do launched %d, want 2", res.Launched)
	}
	// Drive the governor into the gated regime through the public surface.
	for i := 0; i < 64; i++ {
		gs.Governor().Observe(10)
	}
	res, err = g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("gated load-aware Do launched %d, want 1", res.Launched)
	}
	st := gs.Governor().Stats()
	if !st.Gated || !st.Observed {
		t.Errorf("GovernorStats = %+v", st)
	}
}

func TestPublicResultReportsCancelled(t *testing.T) {
	g := redundancy.NewStrategyGroup[string](redundancy.FullReplicate{})
	g.Add("slow", slow("never"))
	g.Add("fast", func(ctx context.Context) (string, error) { return "fast", nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1 (the blocked loser)", res.Cancelled)
	}
}

func TestPublicSLOController(t *testing.T) {
	ctr := redundancy.NewCounters()
	ctl := redundancy.NewSLOController(
		redundancy.SLOTarget{P99: 10 * time.Millisecond, MaxExtraLoad: 0.5},
		redundancy.SLOConfig{Counters: ctr, MaxFanout: 2, MinWindowSamples: 1, DisableValidation: true},
	)

	// The controller is a Strategy: a group built on it serves calls at
	// the default class's operating point (which starts at fan-out 1).
	g := redundancy.NewStrategyGroup[int](ctl)
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("cold controller Do launched %d, want 1 (ladder starts at k=1)", res.Launched)
	}

	// Feed a missing window through the pure decision step: the
	// controller must tighten off the k=1 rung.
	cfg, _ := ctl.Step(redundancy.SLODefaultClass, redundancy.SLOWindow{
		P99: 50 * time.Millisecond, Mean: 5 * time.Millisecond, Samples: 100,
	})
	if cfg.Fanout != 2 {
		t.Errorf("after missed window Fanout = %d, want 2", cfg.Fanout)
	}
	res, err = g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("tightened controller Do launched %d, want 2", res.Launched)
	}

	var st redundancy.SLOClassStats
	found := false
	for _, s := range ctl.Stats() {
		if s.Class == redundancy.SLODefaultClass {
			st, found = s, true
		}
	}
	if !found || st.Tightens < 1 || st.Config.Fanout != 2 {
		t.Errorf("SLOClassStats = %+v, found=%v; want Tightens >= 1 at fan-out 2", st, found)
	}
}
