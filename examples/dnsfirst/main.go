// dnsfirst: replicated DNS resolution against live mock resolvers over
// real UDP, reproducing the paper's §3.2 experiment in miniature: rank a
// set of resolvers by probing, then race queries to the best k and use the
// first response. One resolver is slow and one is lossy; the replicated
// resolver's latency tracks the best healthy server.
//
// Run with: go run ./examples/dnsfirst
package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"redundancy"
	"redundancy/internal/dnswire"
)

func startResolver(delay time.Duration, loss float64, seed int64) (*dnswire.Server, string, error) {
	zone := dnswire.StaticHandler(map[string]net.IP{
		"www.example.com": net.IPv4(192, 0, 2, 10),
		"api.example.com": net.IPv4(192, 0, 2, 20),
	})
	srv := dnswire.NewServer(zone)
	if delay > 0 {
		srv.Delay = func() time.Duration { return delay }
	}
	if loss > 0 {
		r := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		srv.DropProb = loss
		srv.Rand = func() float64 {
			mu.Lock()
			defer mu.Unlock()
			return r.Float64()
		}
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr.String(), nil
}

func main() {
	// Three resolvers with different pathologies, as in the wide area:
	// fast-but-lossy, reliable-but-slow, and good.
	type spec struct {
		name  string
		delay time.Duration
		loss  float64
	}
	specs := []spec{
		{"lossy-fast", 5 * time.Millisecond, 0.30},
		{"reliable-slow", 60 * time.Millisecond, 0},
		{"good", 12 * time.Millisecond, 0.02},
	}
	var addrs []string
	for i, sp := range specs {
		srv, addr, err := startResolver(sp.delay, sp.loss, int64(i+1))
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		addrs = append(addrs, addr)
		fmt.Printf("resolver %-14s at %s (delay %v, loss %.0f%%)\n", sp.name, addr, sp.delay, sp.loss*100)
	}

	client := dnswire.NewClient(500 * time.Millisecond)
	ctx := context.Background()

	measure := func(name string, res *dnswire.Resolver, n int) {
		lat := make([]time.Duration, 0, n)
		fails := 0
		for i := 0; i < n; i++ {
			start := time.Now()
			_, err := res.Lookup(ctx, "www.example.com", dnswire.TypeA)
			if err != nil {
				fails++
				continue
			}
			lat = append(lat, time.Since(start))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) == 0 {
			fmt.Printf("%-28s all %d queries failed\n", name, n)
			return
		}
		fmt.Printf("%-28s p50 %-8v p95 %-8v fails %d/%d\n", name,
			lat[len(lat)/2].Round(time.Millisecond),
			lat[len(lat)*95/100].Round(time.Millisecond), fails, n)
	}

	const n = 60
	fmt.Printf("\n%d lookups of www.example.com per strategy:\n", n)
	for i, sp := range specs {
		one := dnswire.NewResolver(client, redundancy.Fixed{Copies: 1}, addrs[i])
		measure("only "+sp.name, one, n)
	}

	// The paper's strategy: probe to rank, then query the top k in
	// parallel.
	all := dnswire.NewResolver(client, redundancy.Fixed{Copies: 2}, addrs...)
	all.Probe(ctx, "www.example.com", dnswire.TypeA)
	fmt.Printf("\nranked servers (fastest first): %v\n", all.RankedServers())
	measure("replicated top-2", all, n)

	fmt.Println("\nReplication masks both the slow resolver and the lossy one —")
	fmt.Println("without knowing in advance which failure mode each server has.")
}
