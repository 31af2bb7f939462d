package slo

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/core"
)

func testController(t *testing.T, tgt Target, mut func(*Config)) *Controller {
	t.Helper()
	cfg := Config{
		Counters:          core.NewCounters(),
		MinWindowSamples:  10,
		DisableValidation: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	return New(tgt, cfg)
}

// hotWindow is a window loud enough to act on.
func hotWindow(p99 time.Duration, extra float64) Window {
	return Window{P99: p99, Mean: p99 / 4, Samples: 1000, ExtraLoad: extra, Utilization: -1}
}

// TestStepTightensOnMiss: a missed p99 must raise the fan-out above 1
// on the first actionable window, visible immediately through every
// data-path accessor.
func TestStepTightensOnMiss(t *testing.T) {
	tgt := Target{P99: 50 * time.Millisecond, MaxExtraLoad: 0.5}
	c := testController(t, tgt, nil)
	op, mv := c.Step(DefaultClass, hotWindow(200*time.Millisecond, 0))
	if mv != MoveTighten || op.Fanout != 2 || op.Quantile != 0.99 {
		t.Fatalf("first miss: op=%+v move=%v, want fanout 2 at p99", op, mv)
	}
	if k, _ := c.Fanout(); k != 2 {
		t.Fatalf("Controller.Fanout = %d after tighten, want 2", k)
	}
	if !strings.Contains(c.String(), "k=2@p99") {
		t.Fatalf("String() = %q, want tightened operating point", c.String())
	}
}

// TestStepRelaxPatience: headroom must persist for relaxPatience (3)
// consecutive windows before a relax is enacted, and any non-headroom
// window resets the streak.
func TestStepRelaxPatience(t *testing.T) {
	tgt := Target{P99: 100 * time.Millisecond, MaxExtraLoad: 0.5}
	c := testController(t, tgt, nil)
	// Climb two rungs first.
	c.Step(DefaultClass, hotWindow(500*time.Millisecond, 0))
	c.Step(DefaultClass, hotWindow(500*time.Millisecond, 0))
	start, _ := c.ClassConfig(DefaultClass)
	if start.Fanout != 2 || start.Quantile != 0.97 {
		t.Fatalf("setup climbed to %+v, want fanout 2 at p97", start)
	}

	headroom := hotWindow(10*time.Millisecond, 0.02)
	if op, mv := c.Step(DefaultClass, headroom); mv != MoveHold || op != start {
		t.Fatalf("headroom window 1: move=%v op=%+v, want patient hold", mv, op)
	}
	if op, mv := c.Step(DefaultClass, headroom); mv != MoveHold || op != start {
		t.Fatalf("headroom window 2: move=%v op=%+v, want patient hold", mv, op)
	}
	if op, mv := c.Step(DefaultClass, headroom); mv != MoveRelax || op.Quantile != 0.99 {
		t.Fatalf("headroom window 3: move=%v op=%+v, want relax to p99", mv, op)
	}

	// A deadband window must reset the streak: two more headroom
	// windows after it may not relax yet.
	c.Step(DefaultClass, hotWindow(90*time.Millisecond, 0.02))
	c.Step(DefaultClass, headroom)
	if op, mv := c.Step(DefaultClass, headroom); mv != MoveHold {
		t.Fatalf("streak not reset by deadband window: move=%v op=%+v", mv, op)
	}
	st := c.Stats()
	if len(st) != 1 || st[0].LastReason != ReasonPatience.String() {
		t.Fatalf("Stats = %+v, want patience as last reason", st)
	}
}

// TestStepGovernorClamp: a gated window must drop any class straight to
// no redundancy.
func TestStepGovernorClamp(t *testing.T) {
	tgt := Target{P99: 100 * time.Millisecond, MaxExtraLoad: 0.5}
	c := testController(t, tgt, nil)
	c.SetTarget("batch", tgt)
	for i := 0; i < 4; i++ {
		c.Step("batch", hotWindow(time.Second, 0))
	}
	if op, _ := c.ClassConfig("batch"); op.Fanout < 2 {
		t.Fatalf("setup: batch did not tighten: %+v", op)
	}
	w := hotWindow(time.Second, 0)
	w.Gated = true
	op, mv := c.Step("batch", w)
	if mv != MoveClamp || op.Fanout != 1 {
		t.Fatalf("gated step: move=%v op=%+v, want clamp to k=1", mv, op)
	}
	if k, _ := c.Class("batch").Fanout(); k != 1 {
		t.Fatalf("class view Fanout after clamp = %d, want 1", k)
	}
}

// longTailWindow is a window whose p50 is well under a 50ms target and
// whose p99 is over it, so the controller wants to hedge; utilization u
// pins the pre-flight's offered load at u/(1+u).
func longTailWindow(u float64) Window {
	w := hotWindow(200*time.Millisecond, 0)
	w.Mean = 25 * time.Millisecond
	w.Utilization = u
	w.QuantileFn = func(p float64) (time.Duration, bool) {
		switch {
		case p < 0.55:
			return 10 * time.Millisecond, true
		case p < 0.80:
			return 25 * time.Millisecond, true
		case p < 0.92:
			return 60 * time.Millisecond, true
		case p < 0.96:
			return 120 * time.Millisecond, true
		default:
			return 250 * time.Millisecond, true
		}
	}
	return w
}

// TestValidationVetoesTightenUnderHighLoad: with validation enabled and
// the offered load pinned near saturation, the queueing model must
// predict that hedging hurts the tail and veto a climb; the same
// controller at low load must let every climb through.
func TestValidationVetoesTightenUnderHighLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the queueing model")
	}
	tgt := Target{P99: 50 * time.Millisecond, MaxExtraLoad: 1.5}
	// Six consecutive misses try to climb six rungs (p99 down to p85).
	climb := func(u float64) ClassStats {
		c := testController(t, tgt, func(cfg *Config) { cfg.DisableValidation = false })
		for i := 0; i < 6; i++ {
			c.Step(DefaultClass, longTailWindow(u))
		}
		return c.Stats()[0]
	}

	if lo := climb(0.25); lo.Rejects != 0 || lo.Config.Quantile > 0.85 {
		t.Fatalf("load 0.2: %+v, want six accepted climbs", lo)
	}
	// At 0.9 some rung the climb reaches is predicted to hurt the tail —
	// the paper's threshold, enforced at decision time. Which rung is the
	// model's call.
	if hi := climb(9); hi.Rejects == 0 || hi.LastReason != ReasonRejected.String() {
		t.Fatalf("load 0.9: %+v, want vetoed climbs", hi)
	}
}

// TestValidationSimulatesTheLiveStrategy: the pre-flight hands the model
// exactly the strategy the class's ClassStrategy runs once the move is
// published — at every rung a tighten can reach, k=3 included — against
// one copy per request.
func TestValidationSimulatesTheLiveStrategy(t *testing.T) {
	c := testController(t, Target{P99: 50 * time.Millisecond}, func(cfg *Config) { cfg.MaxFanout = 3 })
	view := c.Class(DefaultClass)
	w := longTailWindow(0.25)
	warm := &core.LatDigest{}
	for i := 1; i <= 100; i++ {
		warm.Observe(time.Duration(i) * time.Millisecond)
	}
	top := 0
	for r := 1; r < len(c.lad); r++ {
		base, next, ok := c.preflight(w, c.lad[r])
		if !ok {
			t.Fatalf("rung %d: window not simulable", r)
		}
		if base.Strategy != core.Strategy(core.Fixed{Copies: 1}) {
			t.Fatalf("rung %d: baseline %v, want one copy", r, base.Strategy)
		}
		c.mu.Lock()
		view.cl.rung = r
		view.cl.publish(c.lad)
		c.mu.Unlock()

		if next.Strategy != core.Strategy(view.cl.op.Load().Strategy()) {
			t.Fatalf("rung %d: model runs %v, class runs %v", r, next.Strategy, view)
		}
		k, sel := view.Fanout()
		if mk, msel := next.Strategy.Fanout(); mk != k || msel != sel || k > next.Servers {
			t.Fatalf("rung %d: model fan-out (%d, %v) on %d servers, class (%d, %v)", r, mk, msel, next.Servers, k, sel)
		}
		d := make(core.DigestList, k)
		for i := range d {
			d[i] = warm
		}
		want := view.ScheduleInto(d, make([]time.Duration, k))
		got := next.Strategy.ScheduleInto(d, make([]time.Duration, k))
		if !slices.Equal(got, want) {
			t.Fatalf("rung %d: model schedule %v, class schedule %v", r, got, want)
		}
		top = max(top, k)
	}
	if top != 3 {
		t.Fatalf("top rung fan-out %d, want 3", top)
	}
}

// TestTickWindows drives Tick from real Counters traffic: the first
// tick only baselines, a tick over slow traffic tightens, and the
// window really is a window — the tighten must key off recent
// observations, not the all-time distribution.
func TestTickWindows(t *testing.T) {
	tgt := Target{P99: 50 * time.Millisecond, MaxExtraLoad: 0.5}
	ctr := core.NewCounters()
	c := testController(t, tgt, func(cfg *Config) { cfg.Counters = ctr })
	c.SetTarget("reads", tgt)

	obs := func(label string, d time.Duration, n int) {
		for i := 0; i < n; i++ {
			ctr.Observe(core.Observation{Winner: "a", Launched: 1, Latency: d, Label: label})
		}
	}

	// A long fast history that would mask a recent regression if the
	// controller read cumulative quantiles.
	obs("reads", 5*time.Millisecond, 5000)
	c.Tick() // baseline
	if op, _ := c.ClassConfig("reads"); op.Fanout != 1 {
		t.Fatalf("baseline tick moved the operating point: %+v", op)
	}

	obs("reads", 200*time.Millisecond, 100)
	c.Tick()
	op, _ := c.ClassConfig("reads")
	if op.Fanout != 2 {
		t.Fatalf("tick over slow window: op=%+v, want tighten to fanout 2", op)
	}
	st := c.Stats()
	var reads ClassStats
	for _, s := range st {
		if s.Class == "reads" {
			reads = s
		}
	}
	if reads.Tightens != 1 || reads.WindowP99 < 100*time.Millisecond {
		t.Fatalf("reads stats = %+v, want one tighten on a ~200ms window", reads)
	}

	// The default class watches overall traffic (it saw the same ops).
	if def, ok := c.ClassConfig(DefaultClass); !ok || def.Fanout != 2 {
		t.Fatalf("default class = %+v, want tightened from overall traffic", def)
	}
}

// TestTickMeasuresExtraLoad: the windowed extra-load measurement must
// reflect launched-over-ops deltas, driving the over-budget relax.
func TestTickMeasuresExtraLoad(t *testing.T) {
	tgt := Target{P99: time.Hour, MaxExtraLoad: 0.2}
	ctr := core.NewCounters()
	c := testController(t, tgt, func(cfg *Config) { cfg.Counters = ctr })
	// Climb a rung so there is something to relax.
	c.Step(DefaultClass, hotWindow(2*time.Hour, 0))
	op, _ := c.ClassConfig(DefaultClass)
	if op.Fanout != 2 {
		t.Fatalf("setup: %+v", op)
	}
	c.Tick() // baseline
	for i := 0; i < 200; i++ {
		ctr.Observe(core.Observation{Winner: "a", Launched: 2, Latency: time.Millisecond})
	}
	c.Tick()
	if op, _ = c.ClassConfig(DefaultClass); op.Fanout != 1 {
		t.Fatalf("100%% measured extra load over a 0.2 budget did not relax: %+v", op)
	}
	if st := c.Stats(); st[0].LastReason != ReasonOverBudget.String() {
		t.Fatalf("last reason = %q, want over-budget", st[0].LastReason)
	}
}

// TestClassStrategySchedule: the per-class view hedges at the operating
// point's quantile over warmed digests and launches immediately over
// cold ones.
func TestClassStrategySchedule(t *testing.T) {
	tgt := Target{P99: 50 * time.Millisecond, MaxExtraLoad: 0.5}
	c := testController(t, tgt, nil)
	s := c.Class("reads")
	c.Step("reads", hotWindow(200*time.Millisecond, 0)) // -> fanout 2 at p99

	warm := &core.LatDigest{}
	for i := 0; i < 100; i++ {
		warm.Observe(10 * time.Millisecond)
	}
	d := core.DigestList{warm, &core.LatDigest{}}
	delays := s.ScheduleInto(d, make([]time.Duration, 2))
	if len(delays) != 2 || delays[0] != 0 {
		t.Fatalf("ScheduleInto = %v", delays)
	}
	q, _ := warm.Quantile(0.99)
	if delays[1] != q {
		t.Fatalf("hedge delay = %v, want p99 of warm digest %v", delays[1], q)
	}
	cold := core.DigestList{&core.LatDigest{}, &core.LatDigest{}}
	var buf [2]time.Duration
	if got := s.ScheduleInto(cold, buf[:]); got[1] != 0 {
		t.Fatalf("cold digest hedge delay = %v, want immediate", got[1])
	}
	if k, sel := s.Fanout(); k != 2 || sel != core.SelectRanked {
		t.Fatalf("Fanout = (%d, %v)", k, sel)
	}
	// One operation's schedule never mixes operating points: a swap
	// between Fanout and ScheduleInto is seen as a consistent snapshot by
	// the next call, and d.Len() governs the slice, not the new fanout.
	if got := s.ScheduleInto(core.DigestList{warm}, buf[:1]); got != nil {
		t.Fatalf("single-digest schedule = %v, want nil", got)
	}

	// At every rung of the ladder the view is AdaptiveHedge at that
	// rung's fan-out and quantile, over warm, cold and missing digests.
	for _, r := range buildLadder(3) {
		c.mu.Lock()
		s.cl.rung = slices.Index(c.lad, r)
		s.cl.publish(c.lad)
		c.mu.Unlock()
		ah := core.AdaptiveHedge{Copies: r.fanout, Quantile: r.q, Selection: core.SelectRanked}
		k, sel := s.Fanout()
		if ak, asel := ah.Fanout(); k != ak || sel != asel {
			t.Fatalf("rung %+v: Fanout (%d, %v), AdaptiveHedge (%d, %v)", r, k, sel, ak, asel)
		}
		for name, dg := range map[string]*core.LatDigest{"warm": warm, "cold": {}, "nil": nil} {
			d := make(core.DigestList, k)
			for i := range d {
				d[i] = dg
			}
			got := s.ScheduleInto(d, make([]time.Duration, k))
			want := ah.ScheduleInto(d, make([]time.Duration, k))
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("rung %+v, %s digests: schedule %v, AdaptiveHedge %v", r, name, got, want)
			}
		}
	}
}

// TestControllerIsAGroupStrategy: a Group built on the controller serves
// calls at the default class's operating point — one copy while cold,
// two once Step has tightened off a missed window. No governor was
// given, so Governor() is nil and the calls run ungoverned.
func TestControllerIsAGroupStrategy(t *testing.T) {
	tgt := Target{P99: 10 * time.Millisecond, MaxExtraLoad: 0.5}
	c := testController(t, tgt, func(cfg *Config) {
		cfg.MaxFanout = 2
		cfg.MinWindowSamples = 1
	})
	g := core.NewStrategyGroup[int](c)
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("cold controller Do launched %d, want 1 (ladder starts at k=1)", res.Launched)
	}

	op, _ := c.Step(DefaultClass, Window{P99: 50 * time.Millisecond, Mean: 5 * time.Millisecond, Samples: 100})
	if op.Fanout != 2 {
		t.Errorf("after missed window Fanout = %d, want 2", op.Fanout)
	}
	if res, err = g.Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("tightened controller Do launched %d, want 2", res.Launched)
	}

	var st ClassStats
	found := false
	for _, s := range c.Stats() {
		if s.Class == DefaultClass {
			st, found = s, true
		}
	}
	if !found || st.Tightens < 1 || st.Config.Fanout != 2 {
		t.Errorf("ClassStats = %+v, found=%v; want Tightens >= 1 at fan-out 2", st, found)
	}
}

// TestControllerChurn swaps targets, steps windows, and reads the
// data-path surface concurrently; run with -race -count=5. It pins the
// guarantee that target swaps mid-call never tear an operating point:
// every observed ClassConfig must be internally consistent (fanout 1
// never hedges, hedging quantile always within [p50, p99]).
func TestControllerChurn(t *testing.T) {
	tgt := Target{P99: 50 * time.Millisecond, MaxExtraLoad: 0.5}
	ctr := core.NewCounters()
	c := testController(t, tgt, func(cfg *Config) {
		cfg.Counters = ctr
		cfg.Interval = time.Millisecond
	})
	c.Start()
	defer c.Stop()

	const classes = 3
	names := []string{"a", "b", "default"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })

	for g := 0; g < classes; g++ {
		name := names[g]
		wg.Add(1)
		go func() { // data path: schedule + observe
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(len(name))))
			warm := &core.LatDigest{}
			for i := 0; i < 64; i++ {
				warm.Observe(time.Duration(1+rng.Intn(20)) * time.Millisecond)
			}
			d := core.DigestList{warm, warm, warm}
			var buf [3]time.Duration
			s := c.Class(name)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k, _ := s.Fanout()
				op := *s.cl.op.Load()
				if (op.Fanout == 1) != (op.Quantile == 1) || (op.Fanout > 1 && (op.Quantile < 0.5 || op.Quantile > 0.99)) {
					panic("torn operating point")
				}
				s.ScheduleInto(d[:min(k, 3)], buf[:])
				ctr.Observe(core.Observation{Winner: "a", Launched: k, Latency: time.Duration(1+rng.Intn(100)) * time.Millisecond, Label: name})
			}
		}()
		wg.Add(1)
		go func() { // control path: swap targets and force steps
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(len(name)) * 7))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.SetTarget(name, Target{P99: time.Duration(1+rng.Intn(200)) * time.Millisecond, MaxExtraLoad: float64(rng.Intn(10)) / 10})
				c.Step(name, hotWindow(time.Duration(1+rng.Intn(300))*time.Millisecond, float64(rng.Intn(20))/10))
				c.Class(name)
				c.Stats()
			}
		}()
	}
	wg.Wait()
	for _, name := range c.Classes() {
		op, ok := c.ClassConfig(name)
		if !ok || op.Fanout < 1 {
			t.Fatalf("class %s ended in invalid state: %+v (ok=%v)", name, op, ok)
		}
	}
	// Start is idempotent and restartable.
	c.Stop()
	c.Start()
	c.Start()
	c.Stop()
}

// TestGovernedControllerReopensTheGate: the governor given to the
// controller gates the calls that run it, and lets them go again. A
// 2-replica group runs the controller at k=2; calls held open push the
// governor's EWMA past its gate (threshold 2 copies per replica), and
// the next Tick clamps the class to k=1. From then on only k=1 calls
// see the load fall — the clamp put them there — so they must be what
// opens the gate: within a few Ticks the class leaves reason gated and
// tightens again on its missed p99.
func TestGovernedControllerReopensTheGate(t *testing.T) {
	ctr := core.NewCounters()
	gov := core.NewGovernor(2, 0)
	c := testController(t, Target{P99: time.Nanosecond, MaxExtraLoad: 1}, func(cfg *Config) {
		cfg.Counters = ctr
		cfg.Governor = gov
	})
	release := make(chan struct{})
	g := core.NewStrategyGroup[int](c, core.WithObserver(ctr))
	for _, name := range []string{"a", "b"} {
		g.Add(name, func(ctx context.Context) (int, error) {
			select {
			case <-release:
				return 1, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		})
	}
	eventually := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: governor %+v", what, gov.Stats())
			}
		}
	}
	defStats := func() ClassStats {
		for _, s := range c.Stats() {
			if s.Class == DefaultClass {
				return s
			}
		}
		t.Fatal("no default-class stats")
		return ClassStats{}
	}

	c.Tick() // baseline
	if op, _ := c.Step(DefaultClass, hotWindow(time.Second, 0)); op.Fanout != 2 {
		t.Fatalf("setup: %+v, want k=2", op)
	}
	// Each held call samples the copies the calls before it hold open,
	// then adds two of its own, until a sample crosses the gate.
	var wg sync.WaitGroup
	for held := 0; !gov.Gated(); held++ {
		if held == 16 {
			t.Fatalf("%d k=2 calls held open and the governor never gated: %+v", held, gov.Stats())
		}
		want := gov.Stats().InFlight + 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Do(context.Background())
		}()
		eventually("held call's copies never in flight", func() bool { return gov.Stats().InFlight >= want || gov.Gated() })
	}
	close(release)
	wg.Wait()
	eventually("copies still in flight after release", func() bool { return gov.Stats().InFlight == 0 })
	c.Tick()
	if st := defStats(); st.Config.Fanout != 1 || st.LastReason != ReasonGated.String() {
		t.Fatalf("tick at the gate: %+v, want clamp to k=1, reason gated", st)
	}

	for tick := 1; ; tick++ {
		for i := 0; i < 20; i++ {
			if res, err := g.Do(context.Background()); err != nil || res.Launched != 1 {
				t.Fatalf("clamped call: launched %d, %v; want one copy", res.Launched, err)
			}
		}
		c.Tick()
		st := defStats()
		if st.LastReason != ReasonGated.String() {
			if st.Config.Fanout != 2 || st.LastReason != ReasonMiss.String() {
				t.Fatalf("tick %d after the gate opened: %+v, want a tighten to k=2 on the missed p99", tick, st)
			}
			break
		}
		if tick == 5 {
			t.Fatalf("class still gated after %d ticks of idle k=1 calls: %+v, governor %+v", tick, st, gov.Stats())
		}
	}
}
