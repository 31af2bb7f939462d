// kvreplica: replicated reads against two live memkv servers over real
// TCP, reproducing the paper's storage-service scenario (§2.2) in
// miniature: one replica suffers latency spikes; a ShardedClient that
// places every key on both servers and races the two copies has a tail
// latency that tracks the healthy replica.
//
// Run with: go run ./examples/kvreplica
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"redundancy"
	"redundancy/internal/memkv"
)

func main() {
	// Two in-process servers: replica A degrades with occasional 50 ms
	// stalls (a disk hiccup, a GC pause); replica B is healthy.
	r := rand.New(rand.NewSource(1))
	srvA := memkv.NewServer(nil)
	srvA.Delay = func() time.Duration {
		if r.Float64() < 0.15 {
			return 50 * time.Millisecond
		}
		return time.Millisecond
	}
	srvB := memkv.NewServer(nil)
	srvB.Delay = func() time.Duration { return 2 * time.Millisecond }

	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srvA.Close()
	addrB, err := srvB.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer srvB.Close()

	clA := memkv.NewMuxClient(addrA.String(), time.Second)
	defer clA.Close() // removed from the ring below, so both.Close no longer reaches it
	clB := memkv.NewMuxClient(addrB.String(), time.Second)

	ctx := context.Background()

	// Replication = number of servers: every key lives on both, and each
	// read launches both copies at once.
	both := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  2,
		ReadStrategy: redundancy.Fixed{Copies: 2},
	}, clA, clB)
	defer both.Close()

	// Store a value everywhere.
	if _, err := both.PutVersioned(ctx, "user:42", []byte(`{"name":"ada"}`), 0); err != nil {
		panic(err)
	}

	measure := func(name string, get func() error) {
		const n = 200
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := get(); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var total time.Duration
		for _, d := range lat {
			total += d
		}
		fmt.Printf("%-22s mean %-8v p50 %-8v p95 %-8v p99 %v\n", name,
			(total / n).Round(100*time.Microsecond),
			lat[n/2].Round(100*time.Microsecond),
			lat[n*95/100].Round(100*time.Microsecond),
			lat[n*99/100].Round(100*time.Microsecond))
	}

	fmt.Println("reading user:42 200 times through each client:")
	measure("replica A only", func() error {
		_, err := clA.Get(ctx, "user:42")
		return err
	})
	measure("replicated (A + B)", func() error {
		_, err := both.Get(ctx, "user:42")
		return err
	})
	fmt.Println("\nThe replicated reader's p95/p99 ignore replica A's stalls —")
	fmt.Println("the fast copy masks the slow one (paper §2.2's tail result).")

	// The copy-on-write engine tracks per-replica latency estimates and
	// supports membership changes while reads are in flight: inspect the
	// estimates, then decommission the degraded replica without building
	// a new client.
	fmt.Println("\nper-replica latency estimates (EWMA of successful reads):")
	for _, m := range both.RingStats().Members {
		fmt.Printf("  %-22s %-10v (%d observations)\n",
			m.Name, m.EstimatedLatency.Round(100*time.Microsecond), m.Observations)
	}

	fmt.Println("\ndecommissioning the degraded replica A:")
	both.RemoveShard(addrA.String())
	measure("replicated (B only)", func() error {
		_, err := both.Get(ctx, "user:42")
		return err
	})
}
