package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// --- Copy-on-write engine: dynamic membership. ---

func TestGroupRemove(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1, Selection: SelectRoundRobin})
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	g.Add("c", func(ctx context.Context) (int, error) { return 3, nil })
	if !g.Remove("b") {
		t.Fatal("Remove(b) = false")
	}
	if g.Remove("b") {
		t.Error("second Remove(b) = true")
	}
	if g.Remove("missing") {
		t.Error("Remove(missing) = true")
	}
	names := g.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "c" {
		t.Errorf("Names after Remove = %v", names)
	}
	// The removed replica must never serve again.
	for i := 0; i < 10; i++ {
		res, err := g.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Value == 2 {
			t.Fatal("removed replica served an operation")
		}
	}
}

func TestGroupRemoveAllThenDo(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 2})
	g.Add("only", func(ctx context.Context) (int, error) { return 1, nil })
	if !g.Remove("only") {
		t.Fatal("Remove failed")
	}
	if _, err := g.Do(context.Background()); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("Do on emptied group: %v, want ErrNoReplicas", err)
	}
}

func TestGroupRemoveKeepsEstimates(t *testing.T) {
	// Membership changes must not reset surviving replicas' estimates:
	// members are shared across snapshots.
	g := NewStrategyGroup[string](Fixed{Copies: 2})
	g.Add("a", coretest.Sleeper("a", time.Millisecond))
	g.Add("b", coretest.Sleeper("b", time.Millisecond))
	g.Add("c", coretest.Sleeper("c", time.Millisecond))
	if ok := g.ProbeAll(context.Background()); ok != 3 {
		t.Fatalf("ProbeAll = %d", ok)
	}
	if _, ok := g.EstimatedLatency("a"); !ok {
		t.Fatal("no estimate for a after probe")
	}
	g.Remove("b")
	if _, ok := g.EstimatedLatency("a"); !ok {
		t.Error("estimate for a lost after removing b")
	}
	if _, ok := g.EstimatedLatency("b"); ok {
		t.Error("removed replica still reports an estimate")
	}
}

func TestGroupSetStrategySwapsFanout(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1, Selection: SelectRandom}, WithSeed(1))
	for i := 0; i < 4; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context) (int, error) { return i, nil })
	}
	res, err := g.Do(context.Background())
	if err != nil || res.Launched != 1 {
		t.Fatalf("copies=1: launched %d, err %v", res.Launched, err)
	}
	g.SetStrategy(Fixed{Copies: 3, Selection: SelectRandom})
	res, err = g.Do(context.Background())
	if err != nil || res.Launched != 3 {
		t.Fatalf("after SetStrategy copies=3: launched %d, err %v", res.Launched, err)
	}
	if got := g.Strategy(); got != (Fixed{Copies: 3, Selection: SelectRandom}) {
		t.Errorf("Strategy() = %v", got)
	}
	// Copies below 1 launches one copy.
	g.SetStrategy(Fixed{})
	res, err = g.Do(context.Background())
	if err != nil || res.Launched != 1 {
		t.Fatalf("Fixed{}: launched %d, err %v", res.Launched, err)
	}
}

// TestGroupConcurrentMembershipAndDo is the engine's core race test: many
// goroutines call Do while others add and remove replicas and change the
// strategy. Run with -race. Every operation must either succeed or report
// ErrNoReplicas (the group may be momentarily empty); nothing may panic,
// deadlock, or corrupt state.
func TestGroupConcurrentMembershipAndDo(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRanked}, WithSeed(42))
	g.Add("base", func(ctx context.Context) (int, error) { return -1, nil })

	const (
		doers    = 8
		churners = 4
		iters    = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < churners; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("c%d-%d", w, i)
				v := w*iters + i
				g.Add(name, func(ctx context.Context) (int, error) { return v, nil })
				if i%3 == 0 {
					g.SetStrategy(Fixed{Copies: 1 + i%3, Selection: Selection(i % 3)})
				}
				g.Remove(name)
			}
		}()
	}
	var ok, empty atomic.Int64
	for w := 0; w < doers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, err := g.Do(context.Background())
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrNoReplicas):
					empty.Add(1)
				default:
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no operation succeeded during churn")
	}
	if n := g.Len(); n != 1 {
		t.Errorf("Len after churn = %d, want 1 (only base)", n)
	}
}

func TestGroupConcurrentStatsConsistency(t *testing.T) {
	// Stats must come from one snapshot: with SetStrategy and membership
	// updated atomically together, a reader may never see the post-change
	// strategy paired with the pre-change membership (or vice versa). The
	// writer alternates between two (strategy, membership) configurations
	// that tests can tell apart.
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", func(ctx context.Context) (int, error) { return 0, nil })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Writers hold the group mutex across both updates, but each
			// store publishes a full snapshot; readers see either config.
			if i%2 == 0 {
				g.Add("b", func(ctx context.Context) (int, error) { return 1, nil })
				g.SetStrategy(Fixed{Copies: 2})
			} else {
				g.SetStrategy(Fixed{Copies: 1})
				g.Remove("b")
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s := g.Stats()
		if len(s.Replicas) < 1 || len(s.Replicas) > 2 {
			t.Fatalf("Stats saw %d replicas", len(s.Replicas))
		}
		if s.Strategy != "fixed(k=1, ranked)" && s.Strategy != "fixed(k=2, ranked)" {
			t.Fatalf("Stats saw strategy %q", s.Strategy)
		}
		// Strategy and membership come from one atomic snapshot; Copies may
		// exceed membership only transiently BETWEEN the two writer calls,
		// never inconsistently within one call's published state.
		if s.Replicas[0].Name != "a" {
			t.Fatalf("first replica %q, want a", s.Replicas[0].Name)
		}
	}
	close(stop)
	wg.Wait()
}

func TestGroupStatsObservations(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper("a", time.Millisecond))
	g.Add("b", coretest.Sleeper("b", 2*time.Millisecond))
	s := g.Stats()
	for _, r := range s.Replicas {
		if r.Observed || r.Observations != 0 || r.EstimatedLatency != 0 {
			t.Errorf("replica %s reports observations before any op: %+v", r.Name, r)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s = g.Stats()
	total := int64(0)
	for _, r := range s.Replicas {
		if r.Observed != (r.Observations > 0) {
			t.Errorf("replica %s: Observed=%v with %d observations", r.Name, r.Observed, r.Observations)
		}
		if r.Observed && r.EstimatedLatency <= 0 {
			t.Errorf("replica %s: observed but zero estimate", r.Name)
		}
		total += r.Observations
	}
	if total != 4 {
		t.Errorf("total observations %d, want 4 (copies=1, 4 ops)", total)
	}
	if s.Strategy != "fixed(k=1, ranked)" {
		t.Errorf("Stats strategy %q", s.Strategy)
	}
}

// TestLatEstimateConcurrent hammers one digest from many goroutines; the
// CAS loop must apply every observation exactly once.
func TestLatEstimateConcurrent(t *testing.T) {
	var l LatDigest
	const workers = 8
	const per = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.observe(100)
			}
		}()
	}
	wg.Wait()
	if n := l.count.Load(); n != workers*per {
		t.Errorf("count = %d, want %d", n, workers*per)
	}
	v, ok := l.value()
	if !ok || v != 100 {
		t.Errorf("value = %g, %v; want 100 (EWMA of constant stream)", v, ok)
	}
}

// --- KeyedGroup: the argument-passing call path. ---

func TestKeyedGroupPassesArg(t *testing.T) {
	g := NewStrategyKeyedGroup[string, string](Fixed{Copies: 2})
	for _, name := range []string{"r1", "r2", "r3"} {
		name := name
		g.Add(name, func(ctx context.Context, key string) (string, error) {
			return name + ":" + key, nil
		})
	}
	for _, key := range []string{"alpha", "beta"} {
		res, err := g.Do(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if want := ":" + key; len(res.Value) < len(want) || res.Value[len(res.Value)-len(want):] != want {
			t.Errorf("Do(%q) returned %q; replica did not receive the key", key, res.Value)
		}
	}
}

func TestKeyedGroupOptions(t *testing.T) {
	c := NewCounters()
	g := NewStrategyKeyedGroup[int, int](Fixed{Copies: 3, Selection: SelectRandom},
		WithObserver(c),
		WithSeed(9))
	for i := 0; i < 4; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context, arg int) (int, error) { return arg + i, nil })
	}
	res, err := g.Do(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Errorf("Launched = %d, want 3", res.Launched)
	}
	if res.Value < 100 || res.Value > 103 {
		t.Errorf("Value = %d", res.Value)
	}
	if c.Ops() != 1 {
		t.Errorf("observer Ops = %d", c.Ops())
	}
}

func TestKeyedGroupProbeAll(t *testing.T) {
	g := NewStrategyKeyedGroup[int, int](Fixed{Copies: 1})
	var got atomic.Int32
	for i := 0; i < 3; i++ {
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context, arg int) (int, error) {
			got.Add(int32(arg))
			return arg, nil
		})
	}
	if ok := g.ProbeAll(context.Background(), 7); ok != 3 {
		t.Fatalf("ProbeAll = %d", ok)
	}
	if got.Load() != 21 {
		t.Errorf("replicas saw args summing to %d, want 21", got.Load())
	}
	for _, name := range []string{"r0", "r1", "r2"} {
		if _, ok := g.EstimatedLatency(name); !ok {
			t.Errorf("no estimate for %s after ProbeAll", name)
		}
	}
}

func TestKeyedGroupConcurrentKeys(t *testing.T) {
	// Concurrent Dos with different keys must never cross wires: each
	// caller gets a response derived from its own key.
	g := NewStrategyKeyedGroup[int, int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(3))
	for i := 0; i < 5; i++ {
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context, key int) (int, error) {
			return key * 10, nil
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := g.Do(context.Background(), w)
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				if res.Value != w*10 {
					t.Errorf("key %d got value %d", w, res.Value)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// --- Selection on the lock-free path. ---

// TestRankedSelectionMatchesRankedNames: ranked selection launches the
// replicas RankedNames puts first. The ranking comes from latencies the
// test folds into the digests itself, so no scheduler delay can reorder
// it.
func TestRankedSelectionMatchesRankedNames(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 2, Selection: SelectRanked})
	for _, r := range []struct {
		name string
		lat  time.Duration
	}{{"slow", 20 * time.Millisecond}, {"mid", 8 * time.Millisecond}, {"fast", time.Millisecond}} {
		g.Add(r.name, coretest.Sleeper(r.name, r.lat))
		g.Digest(r.name).Observe(r.lat)
	}
	ranked := g.RankedNames()
	if ranked[0] != "fast" || ranked[2] != "slow" {
		t.Fatalf("RankedNames = %v", ranked)
	}
	// With copies=2 the winner must be one of the two fastest.
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value == "slow" {
		t.Errorf("ranked selection launched the slowest replica")
	}
}

func TestRandomSelectionDistinctAndUniform(t *testing.T) {
	const n = 6
	g := NewStrategyGroup[int](Fixed{Copies: 2, Selection: SelectRandom}, WithSeed(11))
	var hits [n]atomic.Int32
	for i := 0; i < n; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context) (int, error) {
			hits[i].Add(1)
			time.Sleep(200 * time.Microsecond)
			return i, nil
		})
	}
	const ops = 600
	for i := 0; i < ops; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Each op launches 2 distinct of 6; expected per-replica launches =
	// ops*2/6 = 200. Allow wide slack for cancellation races (a cancelled
	// loser may or may not have run) but catch gross non-uniformity.
	for i := range hits {
		if h := hits[i].Load(); h < 60 {
			t.Errorf("replica %d launched only %d times of expected ~200", i, h)
		}
	}
}

func TestSeededSelectionReproducible(t *testing.T) {
	run := func() []int {
		g := NewStrategyGroup[int](Fixed{Copies: 1, Selection: SelectRandom}, WithSeed(77))
		for i := 0; i < 8; i++ {
			i := i
			g.Add(fmt.Sprintf("r%d", i), func(ctx context.Context) (int, error) { return i, nil })
		}
		out := make([]int, 20)
		for i := range out {
			res, err := g.Do(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			out[i] = res.Value
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverged at op %d: %v vs %v", i, a, b)
		}
	}
}
