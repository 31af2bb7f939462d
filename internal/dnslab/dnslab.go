// Package dnslab reproduces the paper's wide-area DNS experiment (§3.2,
// Figures 15-17): from each of several vantage points, rank 10 DNS servers
// by mean response time, then compare querying the best single server
// against querying the top k servers in parallel (k = 1..10), taking the
// first response. Queries slower than 2 seconds count as lost and are
// recorded as 2 seconds, exactly as in the paper.
//
// The paper ran on PlanetLab against public resolvers; that substrate is
// unavailable offline, so each (vantage, server) pair gets a synthetic
// wide-area latency law with the ingredients the paper identifies: a
// per-pair base RTT (servers differ in proximity), per-query jitter,
// occasional cache-miss recursion spikes, and packet loss. The claims
// under test are relative (CCDF improvement factors, percent reductions,
// marginal ms/KB vs the 16 ms/KB benchmark), which depend on the shape of
// these ingredients rather than on PlanetLab specifics.
package dnslab

import (
	"fmt"
	"math/rand"
	"sort"

	"redundancy/internal/dist"
	"redundancy/internal/stats"
)

// Config describes the experiment.
type Config struct {
	Vantages int // number of client vantage points (paper: 15)
	Servers  int // number of DNS servers (paper: 10)
	// QueriesPerStage is the number of queries per vantage in each stage.
	QueriesPerStage int
	Seed            int64

	Params Params
}

// Params are the wide-area model constants (seconds / probabilities).
type Params struct {
	// BaseRTTMin/Max bound the per-(vantage,server) mean RTT, drawn
	// uniformly: some servers are anycast-near, some far.
	BaseRTTMin, BaseRTTMax float64
	// JitterCV is the per-query lognormal CV around the pair's base RTT.
	JitterCV float64
	// MissProb is the probability a query misses the resolver's cache and
	// pays a recursion delay.
	MissProb float64
	// MissMean is the mean recursion delay; lognormal with MissCV.
	MissMean, MissCV float64
	// LossProb is the probability the query or response is dropped.
	LossProb float64
	// Timeout is the loss cutoff; lost/late queries count as Timeout
	// (paper: 2 s).
	Timeout float64
	// BytesPerCopy is the extra traffic per additional server queried
	// (query + response, used for Figure 17's ms/KB metric; the paper's
	// arithmetic implies 500 bytes per copy: 4500 extra bytes for 10
	// copies).
	BytesPerCopy float64
}

// DefaultParams returns constants producing wide-area behaviour of the
// paper's scale: ~40-150 ms typical responses, a multi-hundred-ms
// cache-miss tail, and ~1-2% loss.
func DefaultParams() Params {
	return Params{
		BaseRTTMin: 0.015, BaseRTTMax: 0.150,
		JitterCV: 0.35,
		MissProb: 0.12,
		MissMean: 0.350, MissCV: 0.9,
		LossProb:     0.015,
		Timeout:      2.0,
		BytesPerCopy: 500,
	}
}

// Result aggregates the experiment's output across vantages.
type Result struct {
	// PerK[k-1] is the pooled response-time sample when querying the top
	// k servers in parallel.
	PerK []*stats.Sample
	// Params echoes the configuration used.
	Params Params
}

func (c *Config) setDefaults() {
	if c.Vantages == 0 {
		c.Vantages = 15
	}
	if c.Servers == 0 {
		c.Servers = 10
	}
	if c.QueriesPerStage == 0 {
		c.QueriesPerStage = 20000
	}
	if c.Params == (Params{}) {
		c.Params = DefaultParams()
	}
}

func (c *Config) validate() error {
	if c.Vantages < 1 || c.Servers < 2 || c.QueriesPerStage < 100 {
		return fmt.Errorf("dnslab: implausible config %+v", *c)
	}
	p := c.Params
	if p.Timeout <= 0 || p.LossProb < 0 || p.LossProb >= 1 || p.MissProb < 0 || p.MissProb > 1 {
		return fmt.Errorf("dnslab: invalid params %+v", p)
	}
	return nil
}

// pairModel is the latency law for one (vantage, server) pair.
type pairModel struct {
	rtt  dist.Dist // per-query RTT (lognormal around pair base)
	miss dist.Dist // recursion delay when a cache miss occurs
}

// sample draws one query's response time, with Timeout for losses and as a
// cap (the paper counts queries above 2 s as 2 s).
func (m *pairModel) sample(r *rand.Rand, p Params) float64 {
	if r.Float64() < p.LossProb {
		return p.Timeout
	}
	t := m.rtt.Sample(r)
	if r.Float64() < p.MissProb {
		t += m.miss.Sample(r)
	}
	if t > p.Timeout {
		return p.Timeout
	}
	return t
}

// Run executes the two-stage experiment.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := cfg.Params
	r := rand.New(rand.NewSource(cfg.Seed))

	res := &Result{
		PerK:   make([]*stats.Sample, cfg.Servers),
		Params: p,
	}
	for k := range res.PerK {
		res.PerK[k] = stats.NewSample(cfg.Vantages * cfg.QueriesPerStage / 4)
	}

	for v := 0; v < cfg.Vantages; v++ {
		// Build this vantage's pair models.
		pairs := make([]pairModel, cfg.Servers)
		for s := range pairs {
			base := p.BaseRTTMin + r.Float64()*(p.BaseRTTMax-p.BaseRTTMin)
			pairs[s] = pairModel{
				rtt:  dist.LogNormalMeanCV(base, p.JitterCV),
				miss: dist.LogNormalMeanCV(p.MissMean, p.MissCV),
			}
		}

		// Stage 1: rank servers by mean response time from probes.
		type rankEntry struct {
			idx  int
			mean float64
		}
		ranks := make([]rankEntry, cfg.Servers)
		probesPerServer := cfg.QueriesPerStage / cfg.Servers
		if probesPerServer < 50 {
			probesPerServer = 50
		}
		for s := range pairs {
			var acc stats.Running
			for q := 0; q < probesPerServer; q++ {
				acc.Add(pairs[s].sample(r, p))
			}
			ranks[s] = rankEntry{idx: s, mean: acc.Mean()}
		}
		sort.Slice(ranks, func(i, j int) bool { return ranks[i].mean < ranks[j].mean })

		// Stage 2: for each k, query the top-k servers in parallel.
		for q := 0; q < cfg.QueriesPerStage; q++ {
			k := 1 + q%cfg.Servers // cycle trial types as the paper randomizes them
			best := p.Timeout
			for i := 0; i < k; i++ {
				t := pairs[ranks[i].idx].sample(r, p)
				if t < best {
					best = t
				}
			}
			res.PerK[k-1].Add(best)
		}
	}
	return res, nil
}

// Reduction returns the percent reduction (0-100) of metric f at k copies
// relative to the best single server.
func (r *Result) Reduction(k int, f func(*stats.Sample) float64) float64 {
	base := f(r.PerK[0])
	repl := f(r.PerK[k-1])
	if base == 0 {
		return 0
	}
	return 100 * (1 - repl/base)
}

// MarginalMsPerKB returns Figure 17's metric: the incremental latency
// saving of the k-th server (vs k-1) for metric f, in milliseconds per KB
// of extra traffic.
func (r *Result) MarginalMsPerKB(k int, f func(*stats.Sample) float64) float64 {
	if k < 2 {
		return 0
	}
	saved := f(r.PerK[k-2]) - f(r.PerK[k-1])
	return saved * 1000 / (r.Params.BytesPerCopy / 1024)
}

// Mean is a metric selector for Reduction/MarginalMsPerKB.
func Mean(s *stats.Sample) float64 { return s.Mean() }

// Median is a metric selector.
func Median(s *stats.Sample) float64 { return s.Median() }

// P95 is a metric selector.
func P95(s *stats.Sample) float64 { return s.Quantile(0.95) }

// P99 is a metric selector.
func P99(s *stats.Sample) float64 { return s.P99() }
