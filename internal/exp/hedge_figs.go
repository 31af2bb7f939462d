package exp

import (
	"fmt"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/queueing"
)

// AblationHedging compares the three hedging strategies the core library
// offers — fixed-delay (Fixed), adaptive-quantile (AdaptiveHedge), and
// full replication (FullReplicate) — on the queueing substrate across
// load levels. It is the system-level ablation behind the Strategy
// refactor: §2 of the paper shows *when* to replicate depends on the
// latency distribution's tail, so a caller-guessed fixed delay is tuned
// for exactly one distribution and one load, while AdaptiveHedge hedges
// at a quantile of each server's observed copy latencies, which tracks
// both.
//
// The fixed delay is the guess a caller makes without measuring: a
// conservative 5x the mean service time, chosen to bound the added load
// when the latency distribution is unknown. The adaptive strategy instead
// hedges at its servers' observed p90, holding its extra load near
// (1 - p) by construction and placing the hedge at the tail knee, so it
// wins the p99 at light and moderate load; at 0.45 it and the 5x guess
// trade places from seed to seed (EXPERIMENTS.md). (An aggressively
// tuned 3x guess can match adaptive p99 at one operating point, but its
// realized extra load balloons with load — ~1.19 copies/op at load 0.45
// under this Pareto — which is exactly the unbounded-budget failure the
// adaptive p-knob prevents; sweep Fixed's HedgeDelay to reproduce.)
// Under exponential service p99 is far less sensitive to the hedge point
// (memorylessness), which is why fixed guesses look safe in
// light-tailed toy benchmarks and fail on production tails.
func AblationHedging(o Options) ([]*Table, error) {
	requests := o.scale(200000)
	loads := []float64{0.1, 0.3, 0.45}

	run := func(title, caption string, svc dist.Dist) (*Table, error) {
		tab := &Table{
			Title:   title,
			Caption: caption,
			Columns: []string{"load", "scheme", "mean", "p95", "p99", "copies/op"},
		}
		schemes := []struct {
			name  string
			strat core.Strategy
		}{
			{"no hedging", core.Fixed{Copies: 1}},
			{"fixed delay (5x mean svc)", core.Fixed{Copies: 2, HedgeDelay: time.Duration(5 * svc.Mean() * float64(queueing.Unit))}},
			{"adaptive p90", core.AdaptiveHedge{Copies: 2, Quantile: 0.9}},
			{"full replication", core.FullReplicate{Copies: 2}},
		}
		for _, load := range loads {
			for _, sc := range schemes {
				res, err := queueing.RunHedged(queueing.HedgedConfig{
					Servers:  20,
					Load:     load,
					Service:  svc,
					Strategy: sc.strat,
					Requests: requests,
					Seed:     o.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("%s at load %g: %w", sc.name, load, err)
				}
				tab.Add(load, sc.name, res.Sample.Mean(), res.Sample.Quantile(0.95),
					res.Sample.P99(), 1+res.HedgeRate)
			}
		}
		return tab, nil
	}

	pareto, err := run(
		"Ablation: hedging strategy vs load (Pareto service, alpha=2.1, mean 1, N=20)",
		"heavy tail: adaptive p90 hedging spends ~1.1 copies/op and beats the fixed guess's p99 at loads 0.1 and 0.3 (at 0.45 the winner varies with the seed); "+
			"full replication is best at 0.1 and worst once 2x load nears saturation",
		dist.ParetoMean(2.1, 1))
	if err != nil {
		return nil, err
	}
	expo, err := run(
		"Ablation: hedging strategy vs load (exponential service, mean 1, N=20)",
		"memoryless control: adaptive's p99 edge over the fixed guess is smaller than under the heavy tail at 0.1 and 0.3 and gone at 0.45 — "+
			"the guess only looks safe under light tails",
		dist.Exponential{MeanV: 1})
	if err != nil {
		return nil, err
	}
	return []*Table{pareto, expo}, nil
}
