package queueing_test

import (
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/queueing"
	"redundancy/internal/slo"
)

// TestRunHedgedGovernedClassMatchesLoadAware: the model finds a
// strategy's governor by its Governor method, so a class view of a
// controller that was given a governor runs exactly as the class's
// operating point wrapped by core.LoadAwareWith around an equal
// governor — same seed, same gated share, hedge rate and p99.
func TestRunHedgedGovernedClassMatchesLoadAware(t *testing.T) {
	newGov := func() *core.Governor { return core.NewGovernor(1, 0.25) }
	ctl := slo.New(slo.Target{P99: time.Millisecond}, slo.Config{
		Counters:          core.NewCounters(),
		Governor:          newGov(),
		MaxFanout:         2,
		DisableValidation: true,
	})
	for range 5 { // k=2, down the ladder to p90
		ctl.Step(slo.DefaultClass, slo.Window{P99: time.Second, Samples: 1000, Utilization: -1})
	}
	op, _ := ctl.ClassConfig(slo.DefaultClass)
	if op.Fanout != 2 || op.Quantile != 0.90 {
		t.Fatalf("setup: operating point %+v, want k=2 at p90", op)
	}
	run := func(s core.Strategy) queueing.HedgedResult {
		t.Helper()
		res, err := queueing.RunHedged(queueing.HedgedConfig{
			Servers: 10, Load: 0.45, Service: dist.Exponential{MeanV: 1},
			Strategy: s, Requests: 5000, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	class := run(ctl.Class(slo.DefaultClass))
	wrapped := run(core.LoadAwareWith(op.Strategy(), newGov()))
	t.Logf("gated %.4f, hedges %.4f, p99 %.4g", class.GatedRate, class.HedgeRate, class.Sample.P99())
	if class.GatedRate <= 0 || class.GatedRate >= 1 {
		t.Fatalf("class run gated %.3f of requests: the comparison needs a governor that gates some and not all", class.GatedRate)
	}
	if class.GatedRate != wrapped.GatedRate || class.HedgeRate != wrapped.HedgeRate || class.Sample.P99() != wrapped.Sample.P99() {
		t.Errorf("class view: gated %.4f, hedges %.4f, p99 %.4g; LoadAwareWith: gated %.4f, hedges %.4f, p99 %.4g",
			class.GatedRate, class.HedgeRate, class.Sample.P99(), wrapped.GatedRate, wrapped.HedgeRate, wrapped.Sample.P99())
	}
}
