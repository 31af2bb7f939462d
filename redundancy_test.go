package redundancy_test

// Tests of the public module-root API. The behavioural test suite lives
// with the implementation in internal/core; these verify the re-exported
// surface works as documented for a downstream importer.

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
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

func TestPublicFullReplicateKeepsFastest(t *testing.T) {
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

func TestPublicDoValue(t *testing.T) {
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
	g := redundancy.NewStrategyGroup[string](
		redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRanked},
		redundancy.WithObserver(counters),
		redundancy.WithSeed(1),
	)
	g.Add("a", func(ctx context.Context) (string, error) { return "a", nil })
	g.Add("b", func(ctx context.Context) (string, error) { return "b", nil })
	for i := 0; i < 5; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	res, err := g.Do(context.Background(), redundancy.WithFanoutCap(1))
	if err != nil || res.Launched != 1 {
		t.Errorf("capped Do = (%+v, %v), want 1 copy launched", res, err)
	}
	if counters.Ops() != 6 || counters.CopiesPerOp() != 11.0/6 {
		t.Errorf("Ops = %d, copies/op = %g; want 6 and 11/6", counters.Ops(), counters.CopiesPerOp())
	}
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestPublicHedgeDelayLaunchesSecondCopy(t *testing.T) {
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

// TestRootSurface pins the root package's exported names: what the
// examples, the package examples and the commands use, plus what those
// names need to be callable. Adding an export means editing this list.
func TestRootSurface(t *testing.T) {
	want := []string{
		"AdaptiveHedge", "CallOption", "Counters",
		"DefaultGovernorThreshold", "ErrNoReplicas", "ErrQuorumUnreachable",
		"Fixed", "FullReplicate", "GovernedStrategy", "Group", "GroupOption",
		"LoadAware", "NewCounters", "NewRing", "NewStrategyGroup",
		"Observer", "Outcome", "QuorumError", "Replica", "ReplicaError",
		"Result", "Ring", "SelectRandom", "SelectRanked", "SelectRoundRobin",
		"Selection", "Strategy", "WithCollectOutcomes",
		"WithFanoutCap", "WithObserver", "WithQuorum", "WithSeed",
	}
	f, err := parser.ParseFile(token.NewFileSet(), "redundancy.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						got = append(got, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("root exports %d names %v,\nwant %d %v", len(got), got, len(want), want)
	}
	for _, imp := range f.Imports {
		if p := imp.Path.Value; p != `"redundancy/internal/core"` && p != `"redundancy/internal/ring"` {
			t.Errorf("root imports %s; it re-exports only core and ring", p)
		}
	}
}
