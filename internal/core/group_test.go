package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

func TestGroupEmptyErrors(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 2})
	if _, err := g.Do(context.Background()); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("got %v, want ErrNoReplicas", err)
	}
}

func TestGroupUsesKCopies(t *testing.T) {
	var launched atomic.Int32
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(1))
	for i := 0; i < 5; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) {
			launched.Add(1)
			return i, nil
		})
	}
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2", res.Launched)
	}
	// Both copies may or may not run to completion before cancel; at least
	// the winner ran.
	if launched.Load() < 1 {
		t.Error("no replica ran")
	}
}

func TestGroupCopiesClampedToSize(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 10})
	g.Add("only", func(ctx context.Context) (int, error) { return 7, nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 || res.Value != 7 {
		t.Errorf("got launched=%d value=%d", res.Launched, res.Value)
	}
}

func TestGroupRankedPrefersFastReplica(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 1, Selection: SelectRanked}, WithSeed(2))
	g.Add("slow", coretest.Sleeper("slow", 30*time.Millisecond))
	g.Add("fast", coretest.Sleeper("fast", time.Millisecond))
	// Warm up estimates: ranked selection probes unprobed replicas first,
	// so two operations measure both.
	for i := 0; i < 2; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	ranked := g.RankedNames()
	if ranked[0] != "fast" {
		t.Fatalf("ranked order %v, want fast first", ranked)
	}
	// Subsequent single-copy operations should use the fast replica.
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" {
		t.Errorf("ranked selection used %q", res.Value)
	}
}

func TestGroupEstimatedLatency(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 2})
	g.Add("a", coretest.Sleeper("a", 5*time.Millisecond))
	g.Add("b", coretest.Sleeper("b", 5*time.Millisecond))
	if _, ok := g.EstimatedLatency("a"); ok {
		t.Error("latency known before any operation")
	}
	if _, err := g.Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	d, ok := g.EstimatedLatency("a")
	if !ok && func() bool { _, ok2 := g.EstimatedLatency("b"); return !ok2 }() {
		t.Error("no replica has a latency estimate after an operation")
	}
	if ok && (d <= 0 || d > time.Second) {
		t.Errorf("estimate %v implausible", d)
	}
	if _, ok := g.EstimatedLatency("missing"); ok {
		t.Error("unknown replica reported an estimate")
	}
}

func TestGroupRoundRobinRotates(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1, Selection: SelectRoundRobin})
	var hits [3]atomic.Int32
	for i := 0; i < 3; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) {
			hits[i].Add(1)
			return i, nil
		})
	}
	for i := 0; i < 9; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hits {
		if n := hits[i].Load(); n != 3 {
			t.Errorf("replica %d served %d ops, want 3", i, n)
		}
	}
}

func TestGroupObserverSeesWins(t *testing.T) {
	c := NewCounters()
	g := NewStrategyGroup[string](Fixed{Copies: 2}, WithObserver(c))
	g.Add("fast", coretest.Sleeper("fast", time.Millisecond))
	g.Add("slow", coretest.Sleeper("slow", 100*time.Millisecond))
	// First two ops probe; then fast should win consistently.
	for i := 0; i < 10; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ops() != 10 {
		t.Errorf("Ops = %d, want 10", c.Ops())
	}
	wins := c.Wins()
	if wins["fast"] < 5 {
		t.Errorf("fast won only %d of 10", wins["fast"])
	}
	if c.Failures() != 0 {
		t.Errorf("Failures = %d", c.Failures())
	}
	if cp := c.CopiesPerOp(); cp != 2 {
		t.Errorf("CopiesPerOp = %g, want 2", cp)
	}
	if c.MeanLatency() <= 0 {
		t.Error("MeanLatency not recorded")
	}
}

func TestGroupObserverSeesFailures(t *testing.T) {
	c := NewCounters()
	g := NewStrategyGroup[int](Fixed{Copies: 1}, WithObserver(c))
	g.Add("bad", coretest.Failer[int](errors.New("down"), time.Millisecond))
	if _, err := g.Do(context.Background()); err == nil {
		t.Fatal("want error")
	}
	if c.Failures() != 1 {
		t.Errorf("Failures = %d, want 1", c.Failures())
	}
}

func TestGroupHedgeDelayPolicy(t *testing.T) {
	var launched atomic.Int32
	g := NewStrategyGroup[int](Fixed{Copies: 2, HedgeDelay: 200 * time.Millisecond, Selection: SelectRandom},
		WithSeed(4))
	for i := 0; i < 3; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) {
			launched.Add(1)
			return i, nil
		})
	}
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("fast primary should preempt hedge: Launched = %d", res.Launched)
	}
	if launched.Load() != 1 {
		t.Errorf("hedge copy ran despite fast primary: %d launches", launched.Load())
	}
}

func TestGroupNamesAndLen(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{})
	g.Add("x", func(ctx context.Context) (int, error) { return 0, nil })
	g.Add("y", func(ctx context.Context) (int, error) { return 0, nil })
	if g.Len() != 2 {
		t.Errorf("Len = %d", g.Len())
	}
	names := g.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
}

func TestGroupConcurrentDo(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(5))
	for i := 0; i < 8; i++ {
		i := i
		g.Add(string(rune('a'+i)), coretest.Sleeper(i, time.Millisecond))
	}
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func() {
			_, err := g.Do(context.Background())
			done <- err
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
