package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

func TestFixedStrategyMatchesPolicy(t *testing.T) {
	f := Fixed{Copies: 3, HedgeDelay: 5 * time.Millisecond, Selection: SelectRandom}
	k, sel := f.Fanout()
	if k != 3 || sel != SelectRandom {
		t.Errorf("Fanout = (%d, %v)", k, sel)
	}
	delays := f.ScheduleInto(DigestList{nil, nil, nil}, make([]time.Duration, 3))
	if len(delays) != 3 || delays[1] != 5*time.Millisecond {
		t.Errorf("ScheduleInto = %v", delays)
	}
	if noHedge := (Fixed{Copies: 2}).ScheduleInto(DigestList{nil, nil}, make([]time.Duration, 2)); noHedge != nil {
		t.Errorf("zero-delay Fixed schedule = %v, want nil", noHedge)
	}
	// A fan-out below 1 means one copy.
	if k, _ := (Fixed{}).Fanout(); k != 1 {
		t.Errorf("Fixed{}.Fanout() = %d, want 1", k)
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, tc := range []struct {
		s    Strategy
		want string
	}{
		{Fixed{Copies: 2, Selection: SelectRanked}, "fixed(k=2, ranked)"},
		{Fixed{Copies: 2, HedgeDelay: 15 * time.Millisecond, Selection: SelectRandom}, "fixed(k=2, hedge 15ms, random)"},
		{FullReplicate{Selection: SelectRandom}, "full-replicate(all, random)"},
		{FullReplicate{Copies: 3, Selection: SelectRanked}, "full-replicate(k=3, ranked)"},
		{AdaptiveHedge{}, "adaptive-hedge(k=2, p95, ranked)"},
		{AdaptiveHedge{Copies: 3, Quantile: 0.9, Selection: SelectRoundRobin}, "adaptive-hedge(k=3, p90, round-robin)"},
	} {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("%T.String() = %q, want %q", tc.s, got, tc.want)
		}
	}
}

func TestFullReplicateUsesAllReplicas(t *testing.T) {
	g := NewStrategyGroup[int](FullReplicate{Selection: SelectRandom}, WithSeed(1))
	for i := 0; i < 5; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) { return i, nil })
	}
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 5 {
		t.Errorf("FullReplicate launched %d of 5", res.Launched)
	}
}

func TestAdaptiveHedgeScheduleFromDigests(t *testing.T) {
	// Warm digest: 100 observations, p90 = 90ms-bin upper edge.
	warm := &LatDigest{}
	for i := 1; i <= 100; i++ {
		warm.Observe(time.Duration(i) * time.Millisecond)
	}
	cold := &LatDigest{}
	cold.Observe(time.Millisecond)

	a := AdaptiveHedge{Copies: 3, Quantile: 0.9, MinSamples: 10, FallbackDelay: 7 * time.Millisecond}
	delays := a.ScheduleInto(DigestList{warm, cold, warm}, make([]time.Duration, 3))
	if len(delays) != 3 {
		t.Fatalf("ScheduleInto length %d", len(delays))
	}
	q90, _ := warm.Quantile(0.9)
	if delays[0] != 0 {
		t.Errorf("delays[0] = %v, want 0 (ignored)", delays[0])
	}
	if delays[1] != q90 {
		t.Errorf("delays[1] = %v, want warm p90 %v", delays[1], q90)
	}
	// Copy 2 consults copy 1's digest, which is cold: fallback applies.
	if delays[2] != 7*time.Millisecond {
		t.Errorf("delays[2] = %v, want fallback 7ms", delays[2])
	}

	// Single copy: no schedule at all.
	if d := a.ScheduleInto(DigestList{warm}, make([]time.Duration, 1)); d != nil {
		t.Errorf("k=1 schedule = %v, want nil", d)
	}
}

func TestAdaptiveHedgeColdStartLaunchesImmediately(t *testing.T) {
	// With no fallback delay and cold digests, adaptive hedging degrades
	// to full replication: both copies launch immediately.
	g := NewStrategyGroup[string](AdaptiveHedge{Copies: 2, Selection: SelectRandom}, WithSeed(3))
	g.Add("slow", coretest.Blocked("slow", coretest.NewGate()))
	g.Add("fast", coretest.Instant("fast"))
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" || res.Launched != 2 {
		t.Errorf("cold adaptive Do = (%q, launched %d), want (fast, 2)", res.Value, res.Launched)
	}
}

func TestAdaptiveHedgeWarmDelaysHedge(t *testing.T) {
	// Once the primary's digest is warm, the hedge waits for the quantile
	// delay; a fast primary means only one copy launches.
	g := NewStrategyGroup[string](
		AdaptiveHedge{Copies: 2, Quantile: 0.95, MinSamples: 4, Selection: SelectRanked},
		WithSeed(3))
	g.Add("a", func(ctx context.Context) (string, error) { return "a", nil })
	g.Add("b", func(ctx context.Context) (string, error) { return "b", nil })
	// Warm both digests with 50ms observations: the p95 hedge delay is
	// then enormous next to the instant replicas, so the hedge never
	// fires and every op runs a single copy.
	for _, name := range []string{"a", "b"} {
		dg := g.Digest(name)
		if dg == nil {
			t.Fatalf("Digest(%q) = nil", name)
		}
		for i := 0; i < 8; i++ {
			dg.Observe(50 * time.Millisecond)
		}
	}
	for i := 0; i < 20; i++ {
		res, err := g.Do(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Launched != 1 {
			t.Fatalf("op %d launched %d copies; hedge delay should be ~50ms", i, res.Launched)
		}
	}
}

// oddSchedule exercises the schedule-normalization path: a strategy
// that ignores dst and returns its own memory, with the wrong number of
// delays.
type oddSchedule struct {
	delays []time.Duration
	copies int
}

func (o oddSchedule) Fanout() (int, Selection) { return o.copies, SelectRoundRobin }
func (o oddSchedule) ScheduleInto(Digests, []time.Duration) []time.Duration {
	return o.delays
}
func (o oddSchedule) String() string { return "odd-schedule" }

func TestStrategyScheduleNormalized(t *testing.T) {
	never := coretest.NewGate()
	slow := coretest.Blocked(0, never)
	fast := coretest.Instant(1)

	// Too-short schedule: padded with its last entry, so the launch still
	// proceeds past the declared entries instead of panicking.
	g := NewStrategyGroup[int](oddSchedule{delays: []time.Duration{0, time.Millisecond}, copies: 3})
	g.Add("s1", slow)
	g.Add("s2", slow)
	g.Add("f", fast)
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Errorf("short schedule launched %d, want 3 (padded)", res.Launched)
	}

	// Too-long schedule: truncated.
	g2 := NewStrategyGroup[int](oddSchedule{delays: make([]time.Duration, 10), copies: 2})
	g2.Add("f1", fast)
	g2.Add("f2", fast)
	if _, err := g2.Do(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Empty schedule: treated as launch-all-immediately.
	g3 := NewStrategyGroup[int](oddSchedule{delays: []time.Duration{}, copies: 2})
	g3.Add("f1", fast)
	g3.Add("f2", fast)
	res, err = g3.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("empty schedule launched %d, want 2", res.Launched)
	}
}

func TestNormalizeInto(t *testing.T) {
	ms := time.Millisecond
	buf := make([]time.Duration, 3)
	if got := normalizeInto(nil, buf); got != nil {
		t.Errorf("nil -> %v", got)
	}
	// The nil-vs-empty contract: an empty non-nil schedule means "no
	// delays, launch all copies at once" — normalized to nil, never
	// misread as an all-zero schedule the engine would index.
	if got := normalizeInto([]time.Duration{}, buf); got != nil {
		t.Errorf("empty -> %v", got)
	}
	if got := normalizeInto([]time.Duration{ms, 2 * ms, 3 * ms, 4 * ms}, buf[:2]); len(got) != 2 || got[1] != 2*ms {
		t.Errorf("truncate -> %v", got)
	}
	got := normalizeInto([]time.Duration{ms, 2 * ms}, make([]time.Duration, 4))
	if len(got) != 4 || got[2] != 2*ms || got[3] != 2*ms {
		t.Errorf("pad -> %v", got)
	}
}

// foreignSchedule violates the "fill dst" convention and returns its
// own memory, of the right length; the dispatcher must copy the schedule
// into the caller-owned buffer so quorum zeroing cannot mutate strategy
// state.
type foreignSchedule struct{ delays []time.Duration }

func (f foreignSchedule) Fanout() (int, Selection)                              { return len(f.delays), SelectRoundRobin }
func (f foreignSchedule) String() string                                        { return "foreign" }
func (f foreignSchedule) ScheduleInto(Digests, []time.Duration) []time.Duration { return f.delays }

func TestStrategyScheduleInto(t *testing.T) {
	ms := time.Millisecond
	d := DigestList{nil, nil, nil}

	// A strategy filling dst: returned as-is, backed by buf.
	buf := make([]time.Duration, 3)
	got := strategyScheduleInto(Fixed{Copies: 3, HedgeDelay: ms}, d, buf)
	if len(got) != 3 || &got[0] != &buf[0] || got[2] != ms {
		t.Errorf("Fixed.ScheduleInto -> %v (buf-backed: %v)", got, len(got) > 0 && &got[0] == &buf[0])
	}

	// A strategy returning nil: launch-all.
	if got := strategyScheduleInto(FullReplicate{}, d, buf); got != nil {
		t.Errorf("FullReplicate -> %v", got)
	}

	// A strategy returning foreign memory: copied into buf, so the
	// caller may zero entries without corrupting the strategy.
	foreign := foreignSchedule{delays: []time.Duration{ms, 2 * ms, 3 * ms}}
	got = strategyScheduleInto(foreign, d, buf)
	if len(got) != 3 || &got[0] != &buf[0] {
		t.Fatalf("foreign schedule not rehomed into buf: %v", got)
	}
	got[0] = 0
	if foreign.delays[0] != ms {
		t.Error("zeroing the returned schedule mutated strategy-owned memory")
	}

	// A foreign schedule of the wrong length: normalized into buf (padded
	// with the last entry).
	short := oddSchedule{delays: []time.Duration{0, 2 * ms}, copies: 3}
	got = strategyScheduleInto(short, d, buf)
	if len(got) != 3 || &got[0] != &buf[0] || got[2] != 2*ms {
		t.Errorf("short schedule -> %v", got)
	}

	// An empty non-nil schedule: nil, not an all-zero schedule.
	empty := foreignSchedule{delays: []time.Duration{}}
	if got := strategyScheduleInto(empty, d, buf); got != nil {
		t.Errorf("empty schedule -> %v", got)
	}
}

func TestGroupStatsSelfDescribing(t *testing.T) {
	g := NewStrategyGroup[int](AdaptiveHedge{Copies: 2, Quantile: 0.9})
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	s := g.Stats()
	if !strings.Contains(s.Strategy, "adaptive-hedge") || !strings.Contains(s.Strategy, "p90") {
		t.Errorf("Stats().Strategy = %q", s.Strategy)
	}
	g.SetStrategy(FullReplicate{})
	if s := g.Stats(); !strings.Contains(s.Strategy, "full-replicate") {
		t.Errorf("after SetStrategy: %q", s.Strategy)
	}
	g.SetStrategy(Fixed{Copies: 2, HedgeDelay: time.Millisecond})
	if s := g.Stats(); !strings.Contains(s.Strategy, "fixed") {
		t.Errorf("after SetStrategy(Fixed): %q", s.Strategy)
	}
}

func TestGroupStatsQuantiles(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper(1, 2*time.Millisecond))
	for i := 0; i < 10; i++ {
		if _, err := g.Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	s := g.Stats()
	r := s.Replicas[0]
	if !r.Observed || r.Observations != 10 {
		t.Fatalf("replica stats %+v", r)
	}
	if r.P50 < 2*time.Millisecond || r.P99 < r.P50 || r.P95 < r.P50 {
		t.Errorf("quantiles not ordered/plausible: p50=%v p95=%v p99=%v", r.P50, r.P95, r.P99)
	}
}

func TestSetStrategyNil(t *testing.T) {
	g := NewStrategyGroup[int](nil)
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	if _, err := g.Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	g.SetStrategy(nil)
	if k, _ := g.Strategy().Fanout(); k != 1 {
		t.Errorf("nil strategy normalized to k=%d, want 1", k)
	}
}

// TestStrategyChurnRace hammers one group with concurrent Do, Add,
// Remove, and strategy swaps across all three implementations. Run with
// -race: the digest and the snapshot swap must stay coherent.
func TestStrategyChurnRace(t *testing.T) {
	g := NewStrategyGroup[int](AdaptiveHedge{Copies: 2, MinSamples: 2, Selection: SelectRanked},
		WithSeed(42))
	for i := 0; i < 4; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) { return i, nil })
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := g.Do(ctx); err != nil && !errors.Is(err, ErrNoReplicas) {
					t.Error(err)
					return
				}
			}
		}()
	}
	// A shared governed strategy churns in and out of the rotation while
	// another goroutine slams its governor across the gate threshold, so
	// operations race against governor flips mid-call.
	governed := LoadAware(Fixed{Copies: 2, Selection: SelectRandom}, 2.0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		strategies := []Strategy{
			Fixed{Copies: 2, Selection: SelectRandom},
			AdaptiveHedge{Copies: 3, Quantile: 0.9, MinSamples: 2},
			FullReplicate{Selection: SelectRoundRobin},
			governed,
			Fixed{Copies: 1},
			governed,
		}
		for i := 0; i < 200; i++ {
			g.SetStrategy(strategies[i%len(strategies)])
			if i%10 == 0 {
				g.Remove("churn")
				g.Add("churn", func(ctx context.Context) (int, error) { return -1, nil })
			}
			g.Stats() // reads quantiles concurrently with observes
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Alternate saturated and idle so the gate flips repeatedly
			// while calls are in flight.
			util := 0.0
			if i/16%2 == 0 {
				util = 10.0
			}
			for j := 0; j < 16; j++ {
				governed.Governor().Observe(util)
			}
			governed.Governor().Stats()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if f := governed.Governor().Stats().Flips; f == 0 {
		t.Log("governor never flipped during churn (acceptable, but unexpected)")
	}
}
