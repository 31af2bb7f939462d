// muxbatch: the memkv wire protocol carrying redundancy at scale —
// 50,000 concurrent redundant reads over FOUR TCP connections (one
// multiplexed connection per shard).
//
// The paper's prescription multiplies every read by its replication
// factor, so the transport's concurrency ceiling bounds how far
// redundancy scales. A connection-per-request transport would need
// ~100,000 connections for 50,000 outstanding gets at fan-out 2 —
// 200,000 file descriptors with both ends in one process, an order of
// magnitude past the usual rlimit. MuxClient interleaves any number of
// tagged requests on one connection, so the burst rides four sockets.
//
// Two acts:
//
//  1. 50,000 keys at fan-out 2, each an ordinary redundant read
//     (ShardedClient.GetResult) on its own goroutine, all at once: each
//     copy a tagged request started on its shard's one connection, each
//     loser withdrawn when its key's first reply arrives.
//  2. The same reads hedged: 50,000 deadlines, each on its own call's
//     timer; a hedge whose primary answers in time is stopped unfired and
//     never launches — cancellation without connection churn. How
//     many fire depends on how long the burst itself queues on this
//     machine, so the count is reported, not promised.
//
// Run with: go run ./examples/muxbatch
package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"redundancy"
	"redundancy/internal/memkv"
)

const (
	shards = 4
	keys   = 1000
	reads  = 50_000
)

func main() {
	// Four live shards. A tiny service delay (parked in the server's
	// deadline heap) keeps thousands of requests genuinely in flight at once.
	servers := make([]*memkv.Server, shards)
	addrs := make([]string, shards)
	for i := range servers {
		srv := memkv.NewServer(nil)
		srv.Delay = func() time.Duration { return 5 * time.Millisecond }
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		servers[i] = srv
		addrs[i] = addr.String()
	}
	ctx := context.Background()
	newSharded := func(strategy redundancy.Strategy) *memkv.ShardedClient {
		clients := make([]memkv.Backend, shards)
		for i, addr := range addrs {
			cl := memkv.NewMuxClient(addr, 30*time.Second)
			// Dial now, so the burst rides an established connection: a
			// dial begun by a read's copy is abandoned (and repeated by
			// the next request) if that copy's sibling wins meanwhile.
			if _, err := cl.Get(ctx, "dial"); err != nil && !errors.Is(err, memkv.ErrNotFound) {
				panic(err)
			}
			clients[i] = cl
		}
		return memkv.NewShardedClient(memkv.ShardedConfig{
			Replication:  2,
			ReadStrategy: strategy,
		}, clients...)
	}

	// Preload through a throwaway client set.
	pre := newSharded(redundancy.Fixed{Copies: 1})
	keyNames := make([]string, keys)
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("item-%d", i)
		if _, err := pre.PutVersioned(ctx, keyNames[i], []byte("payload"), 0); err != nil {
			panic(err)
		}
	}
	pre.Close()
	baseConns := acceptedConns(servers)

	fmt.Printf("== muxbatch: %d redundant reads over %d TCP connections ==\n\n", reads, shards)

	// Act 1: every read at once, fan-out 2.
	sc := newSharded(redundancy.Fixed{Copies: 2})
	batch := make([]string, reads)
	for i := range batch {
		batch[i] = keyNames[i%keys]
	}
	start := time.Now()
	res := readAll(ctx, sc, batch)
	wall := time.Since(start)
	launched, p50, p99 := summarize(res)
	muxConns := acceptedConns(servers) - baseConns
	mustRideOneConnPerShard(muxConns)
	fmt.Printf("act 1 — %d concurrent reads x fan-out 2 (%d requests):\n", reads, launched)
	fmt.Printf("        %v wall; per-read p50 %v / p99 %v, each measured from its own read's start, not the batch's\n", wall.Round(time.Millisecond), p50.Round(time.Millisecond), p99.Round(time.Millisecond))
	fmt.Printf("        connections accepted across %d shards: %d (one mux conn per shard)\n\n", shards, muxConns)
	sc.Close()
	baseConns = acceptedConns(servers)

	// Act 2: hedged reads — deadlines armed on each call's timer, then
	// stopped unfired where the primary answers first. No connection
	// churn either way: cancellation is just a discarded tag.
	hedged := newSharded(redundancy.Fixed{Copies: 2, HedgeDelay: 250 * time.Millisecond})
	start = time.Now()
	res = readAll(ctx, hedged, batch)
	hWall := time.Since(start)
	hLaunched, _, hp99 := summarize(res)
	hConns := acceptedConns(servers) - baseConns
	mustRideOneConnPerShard(hConns)
	fired := hLaunched - reads
	fmt.Printf("act 2 — the same reads with a 250ms hedge deadline per key:\n")
	fmt.Printf("        %v wall, per-read p99 %v; %d of %d hedge deadlines fired, %d stopped unfired\n",
		hWall.Round(time.Millisecond), hp99.Round(time.Millisecond), fired, reads, reads-fired)
	fmt.Printf("        connections accepted: %d — abandoning a mux request never costs a reconnect\n", hConns)
	hedged.Close()
}

// readAll reads every key at once, each an ordinary GetResult on its
// own goroutine, and panics on any failed read. Results are in key
// order.
func readAll(ctx context.Context, sc *memkv.ShardedClient, keys []string) []redundancy.Result[memkv.Versioned] {
	res := make([]redundancy.Result[memkv.Versioned], len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = sc.GetResult(ctx, key)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		panic(err)
	}
	return res
}

// summarize reports total copies launched and the quantiles of the
// reads' own latencies (Result.Latency runs from each read's start).
func summarize(res []redundancy.Result[memkv.Versioned]) (launched int, p50, p99 time.Duration) {
	lats := make([]time.Duration, 0, len(res))
	for i := range res {
		launched += res[i].Launched
		lats = append(lats, res[i].Latency)
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	return launched, lats[len(lats)/2], lats[len(lats)*99/100]
}

// mustRideOneConnPerShard fails the demo if an act's client set opened
// anything but its one connection per shard.
func mustRideOneConnPerShard(accepted int64) {
	if accepted != shards {
		panic(fmt.Sprintf("%d connections accepted, want %d", accepted, shards))
	}
}

func acceptedConns(servers []*memkv.Server) (n int64) {
	for _, s := range servers {
		n += s.AcceptedConns()
	}
	return n
}
