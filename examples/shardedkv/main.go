// shardedkv: the paper's §2.2 storage scheme in the live stack — a
// keyspace partitioned across six real memkv shards over TCP via a
// consistent-hash ring, every key stored on a primary plus two
// successors, reads issued redundantly to primary+secondary with the
// first response winning, and writes acked by a 2-of-3 quorum.
//
// Three acts:
//
//  1. A stalled primary: the redundant read returns at the secondary's
//     speed while a fan-out-1 read waits out the stall.
//  2. A dead shard: a 2-of-3 quorum put and the redundant read both
//     survive it.
//  3. A topology change: removing a shard remaps its keys to their
//     successors atomically; the old secondary serves them meanwhile.
//
// Run with: go run ./examples/shardedkv
package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"redundancy"
	"redundancy/internal/memkv"
)

func main() {
	// Six live shards, each with ~1-3 ms of jitter plus a per-shard
	// stall switch for act 1.
	const shards = 6
	r := rand.New(rand.NewSource(1))
	servers := make(map[string]*memkv.Server, shards)
	stalled := make(map[string]*atomic.Bool, shards)
	clients := make([]memkv.Backend, shards)
	for i := 0; i < shards; i++ {
		srv := memkv.NewServer(nil)
		flag := &atomic.Bool{}
		jitter := time.Duration(1+r.Intn(3)) * time.Millisecond
		srv.Delay = func() time.Duration {
			if flag.Load() {
				return 80 * time.Millisecond
			}
			return jitter
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		servers[addr.String()] = srv
		stalled[addr.String()] = flag
		clients[i] = memkv.NewMuxClient(addr.String(), 2*time.Second)
	}

	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication: 3, // primary + two successors hold each key
		WriteQuorum: 2, // a put returns at 2 acks, tolerating one dead shard
		// Reads race primary + secondary; the paper's scheme.
		ReadStrategy: redundancy.Fixed{Copies: 2},
	}, clients...)
	defer sc.Close()
	ctx := context.Background()

	// Partition 240 keys across the ring.
	for i := 0; i < 240; i++ {
		key := fmt.Sprintf("user:%d", i)
		if _, err := sc.PutVersioned(ctx, key, []byte(fmt.Sprintf(`{"id":%d}`, i)), 0); err != nil {
			panic(err)
		}
	}
	fmt.Printf("%d keys sharded across %d shards (replication %d, write quorum %d):\n",
		240, shards, sc.Replication(), sc.WriteQuorum())
	for _, m := range sc.RingStats().Members {
		fmt.Printf("  %-21s key share %4.1f%%\n", m.Name, m.KeyShare*100)
	}

	// --- Act 1: redundant read vs a stalled primary. ---
	// A 2-of-3 quorum put returns at two acks, but its third copy is not
	// cancelled: it lands a few milliseconds later. So every primary,
	// the slowest included, holds the first key by now, and the
	// fan-out-1 read below finds it there.
	key := "user:0"
	primary := sc.Owners(key)[0]
	stalled[primary].Store(true)
	t0 := time.Now()
	if _, err := sc.Get(ctx, key); err != nil {
		panic(err)
	}
	redundant := time.Since(t0)
	t0 = time.Now()
	if _, err := sc.Get(ctx, key, redundancy.WithFanoutCap(1)); err != nil {
		panic(err)
	}
	single := time.Since(t0)
	stalled[primary].Store(false)
	fmt.Printf("\nprimary of %q stalled 80ms:\n", key)
	fmt.Printf("  redundant get (primary+secondary race)  %6s   <- secondary wins\n", redundant.Round(time.Millisecond))
	fmt.Printf("  fan-out-1 get (primary only)            %6s   <- waits out the stall\n", single.Round(time.Millisecond))

	// --- Act 2: quorum put survives a dead shard. ---
	key = "user:11"
	dead := sc.Owners(key)[0]
	servers[dead].Close()
	if _, err := sc.PutVersioned(ctx, key, []byte(`{"id":11,"v":2}`), 0); err != nil {
		panic(err)
	}
	v, err := sc.Get(ctx, key)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nprimary shard of %q killed:\n", key)
	fmt.Printf("  2-of-3 quorum put: ok; redundant get: %s\n", v)

	// --- Act 3: topology change remaps keys live. ---
	before := sc.Owners("user:3")
	sc.RemoveShard(dead)
	after := sc.Owners("user:3")
	fmt.Printf("\ndead shard removed from the ring (%d shards remain):\n", len(sc.RingStats().Members))
	fmt.Printf("  owners of %q: %v -> %v\n", "user:3", before, after)
	if v, err := sc.Get(ctx, "user:3"); err == nil {
		fmt.Printf("  get %q after remap: %s\n", "user:3", v)
	} else {
		panic(err)
	}
}
