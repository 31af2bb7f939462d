package exp

import (
	"fmt"
	"math/rand"
	"sort"

	"redundancy/internal/dist"
	"redundancy/internal/stats"
)

// AblationQuorum measures the latency price of consistency under
// redundancy: a first-response read completes at the minimum of k
// replica latencies, while an R-of-N quorum read (the WithQuorum call
// path) completes at the q-th order statistic. The paper's §2 analysis
// covers q = 1; this ablation extends it to the read-consistency knob
// the unified call API exposes, answering "what does WithQuorum(2) cost
// me over first-response, and how much of that cost does adding a
// replica buy back?".
//
// The honest headline: under a heavy tail, a 2-of-3 quorum read is far
// closer to a 1-of-3 read than to a single un-replicated read — max(2
// of 3) dodges the worst straggler just as min() does — so consistency
// under redundancy is cheap compared to consistency without it (2-of-2
// pays the full max). The q = n column is the scatter-gather worst
// case.
func AblationQuorum(o Options) ([]*Table, error) {
	requests := o.scale(200000)
	type cfg struct {
		n, q int
	}
	cfgs := []cfg{
		{1, 1}, // no redundancy: the baseline read
		{2, 1}, // paper's duplication, first response wins
		{3, 1},
		{2, 2}, // consistency without spare replicas: full max
		{3, 2}, // WithQuorum(2) over 3 replicas
		{3, 3},
		{5, 2},
	}
	run := func(title, caption string, svc dist.Dist) *Table {
		tab := &Table{
			Title:   title,
			Caption: caption,
			Columns: []string{"replicas n", "quorum q", "mean", "p95", "p99", "vs n=1 p99"},
		}
		base := 0.0
		for _, c := range cfgs {
			rng := rand.New(rand.NewSource(o.Seed)) // common random numbers across configs
			sample := stats.NewSample(requests)
			lat := make([]float64, c.n)
			for i := 0; i < requests; i++ {
				for j := range lat {
					lat[j] = svc.Sample(rng)
				}
				sort.Float64s(lat)
				sample.Add(lat[c.q-1])
			}
			p99 := sample.P99()
			if c.n == 1 && c.q == 1 {
				base = p99
			}
			tab.Add(c.n, c.q, sample.Mean(), sample.Quantile(0.95), p99,
				fmt.Sprintf("%.2fx", p99/base))
		}
		return tab
	}
	pareto := run(
		"Ablation: quorum size q vs replica count n (Pareto latency, alpha=2.1, mean 1)",
		"heavy tail: 2-of-3 stays near 1-of-3 and far below 2-of-2 — spare replicas, not lower quorums, buy consistency cheaply",
		dist.ParetoMean(2.1, 1))
	expo := run(
		"Ablation: quorum size q vs replica count n (exponential latency, mean 1)",
		"memoryless control: the same ordering with milder spreads",
		dist.Exponential{MeanV: 1})
	return []*Table{pareto, expo}, nil
}
