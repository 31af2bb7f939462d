// adaptivehedge: p95-triggered hedging against two deliberately skewed
// in-process servers.
//
// A fixed hedge delay must be guessed before the latency distribution is
// known, and the right guess depends on the tail (§2 of the paper), not
// the mean. The AdaptiveHedge strategy instead launches the second copy
// when the elapsed time exceeds the primary replica's observed p95,
// read from its lock-free latency digest — so the hedge point tracks
// the distribution as it drifts, and the extra load stays near 1 - p by
// construction.
//
// The two backends here are skewed differently: "steady" answers in
// 4-6 ms with a rare 60 ms spike; "spiky" answers in 3-5 ms but spikes
// to 120 ms ten times as often. Halfway through, "steady" degrades
// (spikes triple): the hedge point stays pinned at the healthy p95 —
// cancelled spikes never pollute the digest — so the hedge simply fires
// more often and absorbs the extra spikes, with no reconfiguration.
//
// Run with: go run ./examples/adaptivehedge
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redundancy"
)

// backend simulates a server whose latency is base plus jitter, spiking
// to spike with probability spikeP (loaded atomically so the demo can
// degrade it mid-run). Each backend owns its PRNG behind a mutex:
// racing copies and ProbeAll call replicas concurrently, and rand.Rand
// is not safe for concurrent use.
func backend(seed int64, base, jitter, spike time.Duration, spikeP *atomic.Int64) redundancy.Replica[string] {
	r := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func(ctx context.Context) (string, error) {
		mu.Lock()
		d := base + time.Duration(r.Float64()*float64(jitter))
		if r.Float64() < float64(spikeP.Load())/1000 {
			d = spike
		}
		mu.Unlock()
		select {
		case <-time.After(d):
			return "ok", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func main() {
	ctx := context.Background()
	const n = 600

	steadySpikes := &atomic.Int64{}
	steadySpikes.Store(20) // 2%
	spikySpikes := &atomic.Int64{}
	spikySpikes.Store(100) // 10%

	counters := redundancy.NewCounters()
	g := redundancy.NewStrategyGroup[string](
		redundancy.AdaptiveHedge{
			Copies:    2,
			Quantile:  0.95,
			Selection: redundancy.SelectRanked,
		},
		redundancy.WithObserver(counters),
		redundancy.WithSeed(1),
	)
	g.Add("steady", backend(42, 4*time.Millisecond, 2*time.Millisecond, 60*time.Millisecond, steadySpikes))
	g.Add("spiky", backend(43, 3*time.Millisecond, 2*time.Millisecond, 120*time.Millisecond, spikySpikes))

	// Warm the digests: racing alone never measures the loser.
	for i := 0; i < 20; i++ {
		g.ProbeAll(ctx)
	}

	run := func(phase string, ops int) {
		lat := make([]time.Duration, 0, ops)
		for i := 0; i < ops; i++ {
			res, err := g.Do(ctx)
			if err != nil {
				panic(err)
			}
			lat = append(lat, res.Latency)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("%-22s p50 %-9v p99 %-9v copies/op %.2f\n", phase,
			lat[len(lat)/2].Round(100*time.Microsecond),
			lat[len(lat)*99/100].Round(100*time.Microsecond),
			counters.CopiesPerOp())
		stats := g.Stats()
		fmt.Printf("  strategy: %s\n", stats.Strategy)
		for _, rep := range stats.Replicas {
			fmt.Printf("  %-8s p50 %-9v p95 %-9v p99 %-9v (%d obs)\n", rep.Name,
				rep.P50.Round(100*time.Microsecond), rep.P95.Round(100*time.Microsecond),
				rep.P99.Round(100*time.Microsecond), rep.Observations)
		}
	}

	fmt.Printf("%d ops per phase; hedge fires at the primary's observed p95\n\n", n)
	run("healthy backends", n)

	// The steady backend degrades: 6% spike rate. No retuning required —
	// the hedge (still at the healthy p95) just fires more often, and the
	// extra load stays within the 1 - p budget.
	steadySpikes.Store(60)
	fmt.Println()
	run("after steady degrades", n)

	fmt.Println("\nthe hedge delay is never configured: it is read from the")
	fmt.Println("per-replica digest at each call, so the same group adapts as")
	fmt.Println("its backends drift.")
}
