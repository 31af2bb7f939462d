// Quickstart: the core idea of "Low Latency via Redundancy" in twenty
// lines — issue the same operation against two backends, use whichever
// responds first, cancel the other.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"redundancy"
)

// backend simulates a server whose latency is usually low but sometimes
// spikes (cache miss, GC pause, congested path...). Both copies of a
// call run at once, so the shared random source is locked.
func backend(name string, r *rand.Rand, mu *sync.Mutex) redundancy.Replica[string] {
	base := 10 + r.Float64()*10 // 10-20 ms typical
	return func(ctx context.Context) (string, error) {
		d := time.Duration(base * float64(time.Millisecond))
		mu.Lock()
		spike := r.Float64() < 0.2 // 20% of requests hit a 10x latency spike
		mu.Unlock()
		if spike {
			d *= 10
		}
		select {
		case <-time.After(d):
			return fmt.Sprintf("answer from %s after %v", name, d.Round(time.Millisecond)), nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

func main() {
	r := rand.New(rand.NewSource(7))
	var mu sync.Mutex
	east := backend("us-east", r, &mu)
	west := backend("us-west", r, &mu)

	ctx := context.Background()

	fmt.Println("-- single backend (30 requests) --")
	var single time.Duration
	for i := 0; i < 30; i++ {
		start := time.Now()
		if _, err := east(ctx); err != nil {
			panic(err)
		}
		single += time.Since(start)
	}
	fmt.Printf("total: %v\n\n", single.Round(time.Millisecond))

	// A redundant call is a Group call: FullReplicate sends every request
	// to both backends and keeps the first answer.
	g := redundancy.NewStrategyGroup[string](redundancy.FullReplicate{})
	g.Add("us-east", east)
	g.Add("us-west", west)

	fmt.Println("-- FullReplicate group over both backends (30 requests) --")
	var replicated time.Duration
	for i := 0; i < 30; i++ {
		res, err := g.Do(ctx)
		if err != nil {
			panic(err)
		}
		replicated += res.Latency
		fmt.Printf("  %s\n", res.Value)
	}
	fmt.Printf("total: %v (vs %v single)\n\n", replicated.Round(time.Millisecond), single.Round(time.Millisecond))

	// The group kept score: a copy that answers folds into its replica's
	// latency digest, a loser cancelled in flight is counted apart from
	// failures.
	for _, rs := range g.Stats().Replicas {
		fmt.Printf("  %-8s answered %2d  p50 %-6v cancelled %2d\n",
			rs.Name, rs.Observations, rs.P50.Round(time.Millisecond), rs.Cancelled)
	}
	fmt.Println("\nRedundancy wins exactly when one backend spikes — the paper's point:")
	fmt.Println("it removes the tail without knowing where the tail comes from.")
}
