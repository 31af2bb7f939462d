// hedging: full replication vs hedged requests.
//
// The paper's system-level analysis (§2.1) says duplicating EVERY request
// is a win only below the threshold load; hedged requests — launch the
// second copy only if the first is slow — keep most of the tail benefit at
// a small fraction of the extra load, which is how the technique is
// usually deployed (gRPC hedging, Cassandra speculative retry).
//
// Run with: go run ./examples/hedging
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"redundancy"
)

// lockedRand is one seeded source shared by every backend: a call's
// copies run at the same time, so each draw takes the lock.
type lockedRand struct {
	mu sync.Mutex
	r  *rand.Rand
}

func (l *lockedRand) float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Float64()
}

func backend(r *lockedRand, spike float64) redundancy.Replica[int] {
	return func(ctx context.Context) (int, error) {
		d := time.Duration(4+r.float64()*4) * time.Millisecond
		if r.float64() < spike {
			d = 80 * time.Millisecond // the tail we want to cut
		}
		select {
		case <-time.After(d):
			return 1, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

func main() {
	r := &lockedRand{r: rand.New(rand.NewSource(42))}
	ctx := context.Background()
	const n = 400

	run := func(name string, g *redundancy.Group[int], counters *redundancy.Counters) {
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			res, err := g.Do(ctx)
			if err != nil {
				panic(err)
			}
			lat = append(lat, res.Latency)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("%-18s p50 %-8v p99 %-8v copies/op %.2f\n", name,
			lat[n/2].Round(100*time.Microsecond),
			lat[n*99/100].Round(100*time.Microsecond),
			counters.CopiesPerOp())
	}

	mkGroup := func(s redundancy.Strategy) (*redundancy.Group[int], *redundancy.Counters) {
		c := redundancy.NewCounters()
		g := redundancy.NewStrategyGroup[int](s, redundancy.WithObserver(c))
		g.Add("a", backend(r, 0.08))
		g.Add("b", backend(r, 0.08))
		return g, c
	}

	fmt.Printf("%d operations per strategy; backends spike to 80 ms on 8%% of requests\n\n", n)

	g, c := mkGroup(redundancy.Fixed{Copies: 1})
	run("single", g, c)

	g, c = mkGroup(redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRandom})
	run("full replication", g, c)

	g, c = mkGroup(redundancy.Fixed{Copies: 2, HedgeDelay: 15 * time.Millisecond,
		Selection: redundancy.SelectRandom})
	run("hedged @15ms", g, c)

	fmt.Println("\nfull replication: best tail, 2.0 copies per op (double load).")
	fmt.Println("hedged: nearly the same tail, ~1.1 copies per op.")
}
