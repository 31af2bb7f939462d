package core

import (
	"context"
	"errors"
	"testing"

	"redundancy/internal/core/coretest"
)

// --- DoPicked: the routed-subset call path behind internal/ring. ---

func keyed(fn func(ctx context.Context) (int, error)) ArgReplica[string, int] {
	return func(ctx context.Context, _ string) (int, error) { return fn(ctx) }
}

func TestDoPickedRespectsOrder(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 1})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	hb := g.Add("b", keyed(coretest.Instant(2)))
	hc := g.Add("c", keyed(coretest.Instant(3)))

	// Fan-out 1 over an explicit subset launches the subset's first
	// handle, regardless of registration order or selection.
	for _, tc := range []struct {
		picked []Handle[string, int]
		want   int
	}{
		{[]Handle[string, int]{hc, ha}, 3},
		{[]Handle[string, int]{hb, hc, ha}, 2},
		{[]Handle[string, int]{ha}, 1},
	} {
		res, err := g.DoPicked(context.Background(), "k", tc.picked)
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != tc.want || res.Index != 0 || res.Launched != 1 {
			t.Errorf("DoPicked(%v) = value %d index %d launched %d, want value %d index 0 launched 1",
				tc.picked, res.Value, res.Index, res.Launched, tc.want)
		}
	}
}

func TestDoPickedClampsFanoutToSubset(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 5})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	hb := g.Add("b", keyed(coretest.Instant(2)))
	g.Add("c", keyed(coretest.Instant(3)))

	res, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha, hb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("fan-out 5 over a 2-handle subset launched %d, want 2", res.Launched)
	}
}

func TestDoPickedZeroHandle(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 1})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	if _, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha, {}}); err == nil {
		t.Error("DoPicked with a zero Handle succeeded, want error")
	}
	if _, err := g.DoPicked(context.Background(), "k", nil); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("DoPicked with no handles = %v, want ErrNoReplicas", err)
	}
}

func TestDoPickedQuorumWithinSubset(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 2})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	hb := g.Add("b", keyed(coretest.Instant(2)))
	g.Add("c", keyed(coretest.Instant(3)))

	// The quorum is taken within the subset: 2-of-2 succeeds...
	if _, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha, hb}, WithQuorum(2)); err != nil {
		t.Fatal(err)
	}
	// ...but a quorum larger than the subset is unreachable even though
	// the group has enough members.
	if _, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha, hb}, WithQuorum(3)); !errors.Is(err, ErrQuorumUnreachable) {
		t.Errorf("quorum 3 over 2 handles = %v, want ErrQuorumUnreachable", err)
	}
}

func TestDoPickedStaleHandleStillServes(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 1})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	g.Add("b", keyed(coretest.Instant(2)))
	if !g.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	// The handle outlives the membership, exactly like the snapshot an
	// in-flight Do holds: routing layers may drain calls to a
	// decommissioned backend at their own pace.
	res, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha})
	if err != nil || res.Value != 1 {
		t.Errorf("DoPicked(stale a) = %d, %v; want 1, nil", res.Value, err)
	}
}

func TestDoPickedFeedsDigests(t *testing.T) {
	g := NewStrategyKeyedGroup[string, int](Fixed{Copies: 1})
	ha := g.Add("a", keyed(coretest.Instant(1)))
	for i := 0; i < 4; i++ {
		if _, err := g.DoPicked(context.Background(), "k", []Handle[string, int]{ha}); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.Digest("a").Count(); got != 4 {
		t.Errorf("digest count after 4 DoPicked = %d, want 4", got)
	}
}
