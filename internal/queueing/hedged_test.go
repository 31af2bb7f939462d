package queueing

import (
	"testing"

	"redundancy/internal/core"
	"redundancy/internal/dist"
)

// governed is ablcancel's governed arm: full replication behind the
// default gate, re-enabling below 30% of it. A governor carries state,
// so every run gets a fresh one.
func governed() *core.GovernedStrategy {
	return core.LoadAwareWith(core.FullReplicate{Copies: 2},
		core.NewGovernor(core.DefaultGovernorThreshold, 0.7*core.DefaultGovernorThreshold))
}

func TestRunHedgedValidation(t *testing.T) {
	svc := dist.Exponential{MeanV: 1}
	full2 := core.FullReplicate{Copies: 2}
	for _, cfg := range []HedgedConfig{
		{Servers: 1, Load: 0.3, Service: svc, Requests: 100},                                             // too few servers
		{Servers: 10, Load: 0, Service: svc, Requests: 100},                                              // zero load
		{Servers: 10, Load: 0.6, Service: svc, Requests: 100, Strategy: full2},                           // unstable under 2x
		{Servers: 10, Load: 0.4, Service: svc, Requests: 100, Strategy: core.FullReplicate{Copies: 3}},   // unstable under 3x
		{Servers: 10, Load: 0.6, Service: svc, Requests: 100, Strategy: core.Fixed{Copies: 2}},           // a zero delay is full replication
		{Servers: 10, Load: 0.3, Requests: 100},                                                          // no service dist
		{Servers: 10, Load: 0.3, Service: svc},                                                           // no requests
		{Servers: 10, Load: 1, Service: svc, Requests: 100, Strategy: core.AdaptiveHedge{Quantile: 0.9}}, // saturated even unhedged
	} {
		if _, err := RunHedged(cfg); err == nil {
			t.Errorf("config %+v validated", cfg)
		}
	}
	// A hedge that waits launches only on the tail, so the 1/k cap does
	// not apply to it.
	if _, err := RunHedged(HedgedConfig{
		Servers: 10, Load: 0.6, Service: svc, Requests: 500, Seed: 2,
		Strategy: core.Fixed{Copies: 2, HedgeDelay: 4 * Unit},
	}); err != nil {
		t.Errorf("hedged at load 0.6 rejected: %v", err)
	}
}

// TestHedgedBaselineMatchesLindley cross-checks the event-driven model
// against the single-pass Lindley model on the cases they share: one
// copy vs Copies=1, and full replication vs Copies=k (both enqueue every
// copy at arrival on distinct servers and never cancel).
func TestHedgedBaselineMatchesLindley(t *testing.T) {
	svc := dist.Exponential{MeanV: 1}
	for _, tc := range []struct {
		strat  core.Strategy
		copies int
		load   float64
	}{
		{core.Fixed{Copies: 1}, 1, 0.3},
		{core.FullReplicate{Copies: 2}, 2, 0.3},
		{core.FullReplicate{Copies: 3}, 3, 0.2},
	} {
		got, err := RunHedged(HedgedConfig{
			Servers: 20, Load: tc.load, Service: svc, Requests: 60000, Seed: 7, Strategy: tc.strat,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := MeanResponse(Config{
			Servers: 20, Copies: tc.copies, Load: tc.load, Service: svc, Requests: 60000, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := got.Sample.Mean()
		if m < want*0.9 || m > want*1.1 {
			t.Errorf("%v: mean %.4g vs Lindley k=%d %.4g (>10%% apart)", tc.strat, m, tc.copies, want)
		}
	}
}

// TestHedgedFullAlwaysHedges: full replication launches every copy the
// strategy asks for, clamped to the servers there are.
func TestHedgedFullAlwaysHedges(t *testing.T) {
	for _, tc := range []struct {
		strat   core.Strategy
		servers int
		want    float64
	}{
		{core.FullReplicate{Copies: 2}, 10, 1},
		{core.FullReplicate{Copies: 3}, 10, 2},
		{core.FullReplicate{}, 2, 1}, // "every replica" is both servers
	} {
		res, err := RunHedged(HedgedConfig{
			Servers: tc.servers, Load: 0.2, Service: dist.Exponential{MeanV: 1},
			Requests: 5000, Seed: 1, Strategy: tc.strat,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.HedgeRate != tc.want {
			t.Errorf("%v on %d servers: hedge rate %.3f, want %g", tc.strat, tc.servers, res.HedgeRate, tc.want)
		}
	}
}

func TestHedgedAdaptiveRateTracksQuantile(t *testing.T) {
	// By construction an adaptive hedge fires on roughly (1 - p) of
	// requests: exactly when the first copy outlives the p-quantile of its
	// server's copy latencies.
	svc := dist.Exponential{MeanV: 1}
	res, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.3, Service: svc, Requests: 60000, Seed: 3,
		Strategy: core.AdaptiveHedge{Copies: 2, Quantile: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HedgeRate < 0.03 || res.HedgeRate > 0.25 {
		t.Errorf("adaptive p90 hedge rate %.3f, want ~0.1", res.HedgeRate)
	}
	// And it must actually cut the tail relative to no hedging.
	base, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.3, Service: svc, Requests: 60000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sample.P99() >= base.Sample.P99() {
		t.Errorf("adaptive p99 %.4g not below baseline p99 %.4g",
			res.Sample.P99(), base.Sample.P99())
	}
	// A third copy hedges on the second's tail, so it adds hedges, but
	// fewer than the second did.
	three, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.3, Service: svc, Requests: 60000, Seed: 3,
		Strategy: core.AdaptiveHedge{Copies: 3, Quantile: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if three.HedgeRate <= res.HedgeRate || three.HedgeRate > 2*res.HedgeRate {
		t.Errorf("adaptive k=3 p90 hedge rate %.3f vs k=2 %.3f, want in (k=2, 2x k=2]", three.HedgeRate, res.HedgeRate)
	}
}

func TestHedgedFixedRateMatchesTail(t *testing.T) {
	// With a fixed delay d, the hedge launches exactly when the primary
	// response exceeds d, so the hedge rate equals the baseline's
	// fraction of responses above d (approximately: hedging adds load).
	svc := dist.Exponential{MeanV: 1}
	base, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.3, Service: svc, Requests: 60000, Seed: 5,
		Strategy: core.Fixed{Copies: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	const d = 3
	frac := base.Sample.FractionAbove(d)
	res, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.3, Service: svc, Requests: 60000, Seed: 5,
		Strategy: core.Fixed{Copies: 2, HedgeDelay: d * Unit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.HedgeRate < frac*0.5 || res.HedgeRate > frac*2 {
		t.Errorf("fixed-delay hedge rate %.4f vs baseline tail fraction %.4f", res.HedgeRate, frac)
	}
}

func TestHedgedGovernedBelowThresholdMatchesFull(t *testing.T) {
	// Well below the threshold the governor stays out of the way: almost
	// every arrival replicates (transient spike responses may gate a
	// fraction of a percent) and the latency profile matches unconditional
	// full replication closely.
	svc := dist.Exponential{MeanV: 1}
	full, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.2, Service: svc, Requests: 30000, Seed: 9, Strategy: core.FullReplicate{Copies: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	gov, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.2, Service: svc, Requests: 30000, Seed: 9, Strategy: governed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gov.GatedRate > 0.02 {
		t.Errorf("governed gated %.2f%% of arrivals at load 0.2, want < 2%%", gov.GatedRate*100)
	}
	if gov.HedgeRate < 0.98 {
		t.Errorf("governed hedge rate %.3f at load 0.2, want ~1", gov.HedgeRate)
	}
	g, f := gov.Sample.Mean(), full.Sample.Mean()
	if g > f*1.05 || g < f*0.95 {
		t.Errorf("governed mean %.4g vs full mean %.4g: > 5%% apart below threshold", g, f)
	}
	if gp, fp := gov.Sample.P99(), full.Sample.P99(); gp > fp*1.10 {
		t.Errorf("governed p99 %.4g vs full p99 %.4g: > 10%% apart below threshold", gp, fp)
	}
}

func TestHedgedGovernedGatesAboveThreshold(t *testing.T) {
	// Past the threshold (base load 0.48, realized 0.96 under blind
	// duplication) the governor must shed replication: most arrivals run
	// single-copy and the tail stays far below collapsed full replication.
	svc := dist.Exponential{MeanV: 1}
	full, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.48, Service: svc, Requests: 30000, Seed: 9, Strategy: core.FullReplicate{Copies: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	gov, err := RunHedged(HedgedConfig{
		Servers: 20, Load: 0.48, Service: svc, Requests: 30000, Seed: 9, Strategy: governed(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if gov.GatedRate < 0.5 {
		t.Errorf("governed gated only %.2f%% of arrivals at load 0.48", gov.GatedRate*100)
	}
	if gov.Sample.P99() >= full.Sample.P99() {
		t.Errorf("governed p99 %.4g not below collapsed full-replication p99 %.4g",
			gov.Sample.P99(), full.Sample.P99())
	}
}

// TestHedgedGovernedValidation: a governed strategy may run above the
// full-replication stability cap, because it sheds its own load, and
// the model drives the strategy's own Governor — one sample per arrival.
func TestHedgedGovernedValidation(t *testing.T) {
	s := governed()
	if _, err := RunHedged(HedgedConfig{
		Servers: 10, Load: 0.6, Service: dist.Exponential{MeanV: 1}, Requests: 500, Warmup: 50, Seed: 2, Strategy: s,
	}); err != nil {
		t.Fatalf("governed at load 0.6 rejected: %v", err)
	}
	if st := s.Governor().Stats(); st.Samples != 550 || st.Flips == 0 {
		t.Errorf("governor saw %d samples and %d flips, want 550 and some", st.Samples, st.Flips)
	}
}

// TestHedgeSLODeterministic pins that the controller's pre-flight is
// reproducible: same config and seed, identical results — for a
// stateless strategy reused across runs and for a governed one built
// fresh for each.
func TestHedgeSLODeterministic(t *testing.T) {
	for _, mk := range []func() core.Strategy{
		func() core.Strategy { return core.AdaptiveHedge{Copies: 3, Quantile: 0.8} },
		func() core.Strategy { return governed() },
	} {
		cfg := HedgedConfig{
			Servers: 6, Load: 0.3, Service: dist.Exponential{MeanV: 1},
			Strategy: mk(), Requests: 3000, Seed: 99,
		}
		r1, err := RunHedged(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = mk()
		r2, err := RunHedged(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Sample.P99() != r2.Sample.P99() || r1.HedgeRate != r2.HedgeRate || r1.GatedRate != r2.GatedRate {
			t.Errorf("%v: two identical runs diverged: %+v vs %+v", cfg.Strategy, r1, r2)
		}
	}
}
