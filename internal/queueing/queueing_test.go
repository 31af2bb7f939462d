package queueing

import (
	"math"
	"testing"

	"redundancy/internal/analytic"
	"redundancy/internal/dist"
)

func TestMM1MeanMatchesClosedForm(t *testing.T) {
	// Unreplicated exponential service: each server is M/M/1 with
	// E[T] = 1/(1-rho).
	for _, rho := range []float64{0.1, 0.3, 0.45} {
		m, err := MeanResponse(Config{
			Servers: 20, Copies: 1, Load: rho,
			Service: dist.Exponential{MeanV: 1}, Requests: 400000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.MM1MeanResponse(rho)
		if math.Abs(m-want) > 0.05*want {
			t.Errorf("rho=%g: mean %g, M/M/1 closed form %g", rho, m, want)
		}
	}
}

func TestReplicatedMM1MatchesClosedForm(t *testing.T) {
	for _, rho := range []float64{0.1, 0.2, 0.3} {
		m, err := MeanResponse(Config{
			Servers: 30, Copies: 2, Load: rho,
			Service: dist.Exponential{MeanV: 1}, Requests: 400000, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.MM1ReplicatedMeanResponse(rho, 2)
		if math.Abs(m-want) > 0.06*want {
			t.Errorf("rho=%g: replicated mean %g, closed form %g", rho, m, want)
		}
	}
}

func TestTheorem1ExponentialThreshold(t *testing.T) {
	// Theorem 1: threshold load is 1/3 for exponential service.
	th, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.Exponential{MeanV: 1}, Seed: 42, Requests: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-1.0/3) > 0.02 {
		t.Errorf("exponential threshold = %g, want 1/3", th)
	}
}

func TestDeterministicThresholdNear26(t *testing.T) {
	// The paper measures ~25.82% for deterministic service.
	th, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.Deterministic{V: 1}, Seed: 42, Requests: 300000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if th < 0.24 || th > 0.28 {
		t.Errorf("deterministic threshold = %g, want ~0.2582", th)
	}
}

// TestThresholdBetween25And50Conjecture: Conjecture 1 plus the trivial
// upper bound — thresholds lie in (~0.25, 0.5] across very different
// service laws. The golden run asserts it, at least as tightly, for five
// of the six laws this test once swept: deterministic service is
// Figure 2(c)'s p = 0 row, and Weibull γ = 2, Pareto β = 0.5 and
// two-point p = 0.7 are rows of Figures 2(a)–(c), all held in [0.25,
// 0.5) by exp.TestClaimsFig2; exponential service is Theorem 1's
// simulated threshold, held within 0.02 of 1/3 by exp.TestClaimsThm1.
// No golden table has an Erlang law, so Erlang-4 is swept here.
func TestThresholdBetween25And50Conjecture(t *testing.T) {
	if testing.Short() {
		t.Skip("threshold sweep is slow")
	}
	for _, d := range []dist.Dist{dist.Erlang{K: 4, MeanV: 1}} {
		th, err := ThresholdLoad(ThresholdOptions{
			Servers: 20, Service: d, Seed: 7, Requests: 150000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if th < 0.24 || th > 0.5 {
			t.Errorf("%v: threshold %g outside (0.25, 0.5]", d, th)
		}
	}
}

func TestHigherVarianceHigherThreshold(t *testing.T) {
	// Figure 2's central trend: more variable service => larger threshold.
	thLow, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.TwoPointUnitMean(0.1), Seed: 3, Requests: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	thHigh, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.TwoPointUnitMean(0.9), Seed: 3, Requests: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if thHigh <= thLow {
		t.Errorf("threshold did not increase with variance: p=0.1 -> %g, p=0.9 -> %g", thLow, thHigh)
	}
}

func TestClientOverheadLowersThreshold(t *testing.T) {
	// Figure 4: client-side overhead reduces (and can eliminate) the win.
	base, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.Exponential{MeanV: 1}, Seed: 4, Requests: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	withOverhead, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.Exponential{MeanV: 1}, ClientOverhead: 0.3,
		Seed: 4, Requests: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withOverhead >= base {
		t.Errorf("overhead did not lower threshold: %g -> %g", base, withOverhead)
	}
	// Overhead equal to the mean service time makes replication never help
	// the mean (it cannot beat a free extra E[S]).
	killed, err := ThresholdLoad(ThresholdOptions{
		Servers: 20, Service: dist.Deterministic{V: 1}, ClientOverhead: 1.0,
		Seed: 4, Requests: 100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if killed > 0.01 {
		t.Errorf("threshold with overhead = mean service should be ~0, got %g", killed)
	}
}

func TestReplicationHelpsTailAtLowLoad(t *testing.T) {
	// Figure 1(c): the tail improves dramatically under Pareto service.
	cfg := Config{
		Servers: 20, Copies: 1, Load: 0.2,
		Service: dist.ParetoMean(2.1, 1), Requests: 300000, Seed: 5,
	}
	s1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Copies = 2
	s2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Mean() >= s1.Mean() {
		t.Errorf("replication did not improve mean at 20%% load: %g vs %g", s2.Mean(), s1.Mean())
	}
	p999_1, p999_2 := s1.P999(), s2.P999()
	if p999_2 >= p999_1/2 {
		t.Errorf("99.9th percentile improvement < 2x: %g vs %g", p999_1, p999_2)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{
		Servers: 10, Copies: 2, Load: 0.2,
		Service: dist.Exponential{MeanV: 1}, Requests: 10000, Seed: 9,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean() != b.Mean() || a.P999() != b.P999() {
		t.Error("same-seed runs diverged")
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Servers: 10, Copies: 1, Load: 0.2,
		Service: dist.Exponential{MeanV: 1}, Requests: 100}
	bad := []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.Copies = 0 },
		func(c *Config) { c.Copies = 11 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 0.6; c.Copies = 2 },
		func(c *Config) { c.Service = nil },
		func(c *Config) { c.Requests = 0 },
	}
	for i, mut := range bad {
		c := base
		mut(&c)
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := Run(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestPickServersDistinct(t *testing.T) {
	cfg := Config{Servers: 3, Copies: 3, Load: 0.1,
		Service: dist.Deterministic{V: 1}, Requests: 1000, Seed: 1}
	// With k = N = 3, all servers are used for every request; if the copies
	// were not distinct the response-time minimum would sometimes reflect
	// a duplicated (queued-behind-itself) server. Just assert it runs and
	// produces sane output.
	s, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min() < 1 {
		t.Errorf("response below service time: %g", s.Min())
	}
}
