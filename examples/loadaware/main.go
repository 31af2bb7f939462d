// loadaware: the paper's threshold crossing, live — and what cancellation
// and the load-aware governor each do about it.
//
// Redundant copies buy latency only while the added load keeps server
// utilization below a threshold (§2 of the paper: 25-50% base load, 1/3
// for exponential service). Past it there are two defenses, and this demo
// shows both against in-process FCFS backends with real queues:
//
//  1. Copy cancellation. When the winner returns, losing copies are
//     cancelled through their derived contexts; a backend that honors
//     cancellation skips losers still sitting in its queue, so the
//     realized extra load is far below 2x (the "cancelled" column counts
//     copies cancelled in flight) and even blind fixed fan-out-2 stays
//     healthy well past the nominal threshold.
//
//  2. The governor. Some backends cannot un-send work (a UDP query
//     already on the wire, a server that processes regardless — the
//     paper's no-cancellation worst case). Against those, fixed
//     fan-out-2 drives utilization toward saturation and its tail
//     explodes, while LoadAware measures the load (EWMA of in-flight
//     copies per replica) and sheds its own redundancy, degrading
//     gracefully toward the single-copy baseline.
//
// Run with: go run ./examples/loadaware
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

// job is one unit of backend work; served reports whether the worker
// actually ran it (a cancellable job skipped while queued is reclaimed
// capacity).
type job struct {
	ctx    context.Context
	done   chan struct{}
	served bool
}

// backend is a single FCFS worker with a queue: real queueing, so
// offered load above capacity actually hurts, exactly as in the paper's
// model. honorCancel selects whether the worker skips jobs whose context
// was cancelled while they queued.
type backend struct {
	jobs chan *job
}

func newBackend(seed int64, meanSvc time.Duration, honorCancel bool) *backend {
	b := &backend{jobs: make(chan *job, 8192)}
	go func() {
		rng := rand.New(rand.NewSource(seed))
		for j := range b.jobs {
			if honorCancel && j.ctx.Err() != nil {
				close(j.done) // cancelled while queued: no service time spent
				continue
			}
			time.Sleep(time.Duration(rng.ExpFloat64() * float64(meanSvc)))
			j.served = true
			close(j.done)
		}
	}()
	return b
}

func (b *backend) replica() redundancy.Replica[struct{}] {
	return func(ctx context.Context) (struct{}, error) {
		j := &job{ctx: ctx, done: make(chan struct{})}
		select {
		case b.jobs <- j:
		case <-ctx.Done():
			return struct{}{}, ctx.Err()
		}
		select {
		case <-j.done:
		case <-ctx.Done():
			// The client abandons a cancelled copy immediately; whether
			// the backend still burns service time on it is the backend's
			// (in)ability to honor cancellation.
			return struct{}{}, ctx.Err()
		}
		if !j.served {
			return struct{}{}, ctx.Err()
		}
		return struct{}{}, nil
	}
}

const (
	nBackends = 4
	meanSvc   = 2 * time.Millisecond
)

// capacity is the backend pool's service rate in ops/s.
var capacity = float64(nBackends) * float64(time.Second) / float64(meanSvc)

// offer fires ops operations at the given base utilization (offered
// single-copy load as a fraction of capacity), Poisson arrivals, and
// reports the observed latency quantiles.
func offer(g *redundancy.Group[struct{}], baseUtil float64, ops int, seed int64) (p50, p99 time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	interarrival := float64(time.Second) / (baseUtil * capacity)
	var (
		mu  sync.Mutex
		lat []time.Duration
		wg  sync.WaitGroup
	)
	// Absolute-time pacing: sleeping the interarrival directly would add
	// the scheduler's wake-up overshoot to every gap and quietly offer
	// less load than advertised.
	start := time.Now()
	next := time.Duration(0)
	for i := 0; i < ops; i++ {
		next += time.Duration(rng.ExpFloat64() * interarrival)
		time.Sleep(time.Until(start.Add(next)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := g.Do(context.Background())
			if err != nil {
				return
			}
			mu.Lock()
			lat = append(lat, res.Latency)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return lat[len(lat)/2], lat[len(lat)*99/100]
}

func runPhase(name string, baseUtil float64, ops int, honorCancel bool) {
	fmt.Println(name)
	gs := redundancy.LoadAware(redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRandom},
		redundancy.DefaultGovernorThreshold)
	arms := []struct {
		name     string
		strategy redundancy.Strategy
		governed *redundancy.GovernedStrategy
	}{
		{"fixed k=2", redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRandom}, nil},
		{"governed k=2", gs, gs},
	}
	for _, a := range arms {
		// Fresh backends per arm: both arms see identical offered traffic
		// instead of contending for one pool.
		counters := redundancy.NewCounters()
		g := redundancy.NewStrategyGroup[struct{}](a.strategy,
			redundancy.WithObserver(counters),
			redundancy.WithSeed(7))
		for i := 0; i < nBackends; i++ {
			g.Add(fmt.Sprintf("b%d", i), newBackend(int64(100+i), meanSvc, honorCancel).replica())
		}
		p50, p99 := offer(g, baseUtil, ops, 1)
		fmt.Printf("  %-14s p50 %-9v p99 %-9v copies/op %.2f cancelled %d",
			a.name, p50.Round(100*time.Microsecond), p99.Round(100*time.Microsecond),
			counters.CopiesPerOp(), counters.CancelledCopies())
		if a.governed != nil {
			st := a.governed.Governor().Stats()
			fmt.Printf("  [governor: util %.2f gated=%v flips=%d]", st.Utilization, st.Gated, st.Flips)
		}
		fmt.Println()
	}
	fmt.Println()
}

func main() {
	fmt.Printf("%d FCFS backends, exp(%v) service (capacity %.0f ops/s), threshold %.3g in-flight/replica\n\n",
		nBackends, meanSvc, capacity, redundancy.DefaultGovernorThreshold)

	runPhase("below threshold (base load 0.25), backends honor cancellation", 0.25, 400, true)
	runPhase("above threshold (base load 0.45), backends honor cancellation", 0.45, 900, true)
	runPhase("above threshold (base load 0.48), backends IGNORE cancellation (paper's worst case)", 0.48, 2400, false)

	fmt.Println("cancellation reclaims losing copies before they cost service time,")
	fmt.Println("so redundancy stays affordable past the nominal threshold; when the")
	fmt.Println("backend cannot cancel, the governor measures the load and stops")
	fmt.Println("paying for redundancy that no longer buys latency.")
}
