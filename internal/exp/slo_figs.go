package exp

import (
	"fmt"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/queueing"
	"redundancy/internal/slo"
)

// AblationSLO puts the self-tuning SLO controller (internal/slo) in
// closed loop with the deterministic queueing model and ramps the
// offered load across the paper's threshold. At each load level three
// systems chase the same p99 target:
//
//   - fixed k=1: never hedges. Cheap everywhere, but the service tail
//     (lognormal with cv 2 — the paper's motivating heavy-tail regime)
//     puts its p99 over the target at every load level on the ramp.
//   - fixed k=2 @ p50: always hedges at the median. Meets the target at
//     low load by spending ~1.5x capacity (overpaying where a later
//     hedge would do), then collapses past the threshold where the
//     extra copies push the realized load toward saturation — the
//     paper's central warning.
//   - slo controller: starts at k=1, observes each window exactly as
//     the production Tick loop would (p99, extra load, quantile
//     skeleton), and hill-climbs the hedge-quantile ladder until the
//     cheapest configuration inside the extra-load budget meets the
//     target, holding at the deadband.
//
// Reading the table: at every load level where some affordable
// configuration can meet the target, the controller's row meets it with
// strictly fewer copies/op than fixed k=2 — it pays only the tail
// probability (1-q) it needs. Where no configuration can (highest
// load), it reports the miss at bounded spend instead of saturating.
// The windows are paired: every simulation at one load level shares one
// seed, so comparisons are arrival-for-arrival.
func AblationSLO(o Options) ([]*Table, error) {
	requests := o.scale(50000)
	const unit = time.Millisecond // one model time unit rendered as 1ms
	target := slo.Target{P99: 11 * unit, MaxExtraLoad: 0.35}
	loads := []float64{0.15, 0.25, 0.35, 0.60}
	svc := dist.LogNormalMeanCV(1, 2)

	tab := &Table{
		Title: "Ablation: self-tuning SLO controller vs fixed strategies across a load ramp (lognormal service, mean 1ms, cv 2, N=20)",
		Caption: fmt.Sprintf("target p99 = %v, extra-load budget = %.2f copies/op; fixed k=1 misses the target at every load, "+
			"fixed k=2@p50 overpays at low load and collapses past the threshold; the controller converges to the cheapest "+
			"affordable point that meets the target, or reports the miss at bounded spend", target.P99, target.MaxExtraLoad),
		Columns: []string{"load", "scheme", "p99 (ms)", "copies/op", "meets", "operating point"},
	}

	// Every arm runs an operating point's own strategy, the one the
	// controller's ClassStrategy runs live.
	simulate := func(load float64, cfg slo.ClassConfig, seed int64) (queueing.HedgedResult, error) {
		return queueing.RunHedged(queueing.HedgedConfig{
			Servers:  20,
			Load:     load,
			Service:  svc,
			Strategy: cfg.Strategy(),
			Requests: requests,
			Seed:     seed,
		})
	}
	ms := func(units float64) float64 { return units * float64(unit) / float64(time.Millisecond) }
	meets := func(p99 float64) string {
		if time.Duration(p99*float64(unit)) <= target.P99 {
			return "yes"
		}
		return "MISS"
	}

	for li, load := range loads {
		seed := o.Seed + int64(li+1)*7919

		// Fixed comparators, both at bounded honesty: k=1 never spends,
		// k=2@p50 spends uncapped (that is its point).
		base, err := simulate(load, slo.ClassConfig{Fanout: 1}, seed)
		if err != nil {
			return nil, fmt.Errorf("ablslo k=1 at load %g: %w", load, err)
		}
		tab.Add(load, "fixed k=1", ms(base.Sample.P99()), 1+base.HedgeRate, meets(base.Sample.P99()), "k=1")

		agg, err := simulate(load, slo.ClassConfig{Fanout: 2, Quantile: 0.50}, seed)
		if err != nil {
			return nil, fmt.Errorf("ablslo k=2@p50 at load %g: %w", load, err)
		}
		tab.Add(load, "fixed k=2@p50", ms(agg.Sample.P99()), 1+agg.HedgeRate, meets(agg.Sample.P99()), "k=2@p50")

		// The controller, in closed loop: simulate the current operating
		// point, feed the resulting window through Step exactly as Tick
		// would, repeat until it holds (converged) or the walk is plainly
		// done. Deterministic windows mean a held point stays held.
		ctr := core.NewCounters()
		ctl := slo.New(target, slo.Config{
			Counters:          ctr,
			MaxFanout:         2,
			MinWindowSamples:  1,
			DisableValidation: true, // the model IS the validator here
		})
		cfg, _ := ctl.ClassConfig(slo.DefaultClass)
		var res queueing.HedgedResult
		converged := false
		for iter := 0; iter < 15; iter++ {
			res, err = simulate(load, cfg, seed)
			if err != nil {
				return nil, fmt.Errorf("ablslo controller at load %g (%+v): %w", load, cfg, err)
			}
			r := res
			w := slo.Window{
				P99:         time.Duration(r.Sample.P99() * float64(unit)),
				Mean:        time.Duration(r.Sample.Mean() * float64(unit)),
				Samples:     int64(requests),
				ExtraLoad:   r.HedgeRate,
				Utilization: load / (1 - load),
				QuantileFn: func(q float64) (time.Duration, bool) {
					return time.Duration(r.Sample.Quantile(q) * float64(unit)), true
				},
			}
			next, mv := ctl.Step(slo.DefaultClass, w)
			if mv == slo.MoveHold {
				converged = true
				break
			}
			cfg = next
		}
		if !converged {
			// Walk cap hit (possible only at the ragged edge): measure the
			// final point so the row reports what that config really does.
			if res, err = simulate(load, cfg, seed); err != nil {
				return nil, fmt.Errorf("ablslo controller final at load %g: %w", load, err)
			}
		}
		op := "k=1"
		if cfg.Fanout > 1 {
			op = fmt.Sprintf("k=%d@p%02.0f", cfg.Fanout, cfg.Quantile*100)
		}
		tab.Add(load, "slo controller", ms(res.Sample.P99()), 1+res.HedgeRate, meets(res.Sample.P99()), op)
	}
	return []*Table{tab}, nil
}
