// selfheal: the convergence subsystem end to end — hinted handoff, read
// repair, and governed anti-entropy migration over live memkv shards.
//
// The paper's redundancy argument assumes every replica in a key's
// placement actually holds the data. Failures and topology changes
// silently break that assumption; this demo shows the repair manager
// restoring it in three acts, each off the foreground critical path:
//
//  1. Hinted handoff: a shard dies, a quorum-1 versioned write still
//     succeeds, and the missed copy is queued as a hint. When the shard
//     comes back on its old address, the hint replays and the revived
//     replica catches up — no caller involved.
//  2. Read repair: one replica is deliberately staled; a quorum read
//     returns the newest version and queues it as a hint for the stale
//     copy, which the same replay loop lands.
//  3. Anti-entropy migration: a new shard joins, and the migrator
//     streams exactly the remapped keys to their new owners in governed
//     batches; a version audit then finds every owner holding every key
//     at the version the writer minted.
//
// Run with: go run ./examples/selfheal
package main

import (
	"context"
	"fmt"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
	"redundancy/internal/repair"
)

func main() {
	ctx := context.Background()

	// Four live shards over TCP, replication 2, quorum-1 writes (so act 1
	// can succeed with a dead replica).
	const shards = 4
	servers := make(map[string]*memkv.Server, shards)
	clients := make([]memkv.Backend, shards)
	for i := 0; i < shards; i++ {
		srv := memkv.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		servers[addr.String()] = srv
		clients[i] = memkv.NewMuxClient(addr.String(), 2*time.Second)
	}
	sc := memkv.NewShardedClient(memkv.ShardedConfig{Replication: 2, WriteQuorum: 1}, clients...)
	defer sc.Close()

	mgr := repair.Attach(sc, repair.Config{
		ReplayInterval: 50 * time.Millisecond,
	})
	defer mgr.Close()

	// ---- Act 1: hinted handoff ----
	fmt.Println("== act 1: hinted handoff ==")
	key := "user:42"
	owners := sc.Owners(key)
	downAddr := owners[1]
	servers[downAddr].Close()
	fmt.Printf("shard %s (secondary for %q) is down\n", downAddr, key)

	ver, err := sc.PutVersioned(ctx, key, []byte("profile-v1"), 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("quorum-1 write of %q succeeded at version %d despite the dead replica\n", key, ver)

	waitUntil("missed copy queued as a hint", func() bool {
		return mgr.Stats().HintsQueued >= 1
	})

	srv2 := memkv.NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		panic(err)
	}
	defer srv2.Close()
	fmt.Printf("shard %s restarted on its old address\n", downAddr)
	waitUntil("hint replayed to the revived shard", func() bool {
		return mgr.Stats().HintsReplayed >= 1
	})
	waitUntil("revived replica holds the value at the written version", func() bool {
		_, v, _, err := sc.VersionedShard(downAddr).GetV(ctx, key)
		return err == nil && v == ver
	})

	// ---- Act 2: read repair ----
	fmt.Println("\n== act 2: read repair ==")
	key2 := "doc:7"
	if _, err := sc.PutVersioned(ctx, key2, []byte("draft"), 0); err != nil {
		panic(err)
	}
	o2 := sc.Owners(key2)
	newer := sc.NextVersion()
	if _, _, err := sc.VersionedShard(o2[0]).PutV(ctx, key2, []byte("final"), 0, newer); err != nil {
		panic(err)
	}
	fmt.Printf("replica %s deliberately staled (holds the old version of %q)\n", o2[1], key2)

	res, err := sc.GetResult(ctx, key2, core.WithQuorum(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("quorum read returned %q at version %d (the newest of the two copies)\n", res.Value.Value, res.Value.Version)
	waitUntil("stale replica healed by async read repair", func() bool {
		_, v, _, err := sc.VersionedShard(o2[1]).GetV(ctx, key2)
		return err == nil && v == newer
	})

	// ---- Act 3: anti-entropy migration ----
	fmt.Println("\n== act 3: anti-entropy migration ==")
	const n = 100
	wantVer := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("file-%02d", i)
		v, err := sc.PutVersioned(ctx, k, []byte(k), 0)
		if err != nil {
			panic(err)
		}
		wantVer[k] = v
	}
	prev := sc.PlacementSnapshot()
	newSrv := memkv.NewServer(nil)
	newAddr, err := newSrv.Listen("127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer newSrv.Close()
	sc.AddShard(memkv.NewMuxClient(newAddr.String(), 2*time.Second))
	cur := sc.PlacementSnapshot()
	fmt.Printf("shard %s joined: keys remap to the new placement\n", newAddr)

	st, err := mgr.Rebalance(ctx, prev, cur)
	if err != nil {
		panic(err)
	}
	fmt.Printf("migrator: scanned %d entries, migrated %d remapped keys in %v (applied %d, already-newer %d)\n",
		st.KeysScanned, st.KeysMigrated, st.Elapsed.Round(time.Millisecond), st.PutsApplied, st.PutsStale)

	audited, converged := 0, 0
	for k, v := range wantVer {
		audited++
		ok := true
		for _, owner := range cur.Owners(k) {
			_, got, _, err := sc.VersionedShard(owner).GetV(ctx, k)
			if err != nil || got != v {
				ok = false
			}
		}
		if ok {
			converged++
		}
	}
	fmt.Printf("version audit: %d/%d keys present at every owner at the written version\n", converged, audited)
	if converged != audited {
		panic(fmt.Sprintf("version audit: %d of %d keys did not converge", audited-converged, audited))
	}

	s := mgr.Stats()
	fmt.Printf("\nrepair stats: hints queued/replayed %d/%d (missed writes and read repairs), divergence observed %d, keys migrated %d\n",
		s.HintsQueued, s.HintsReplayed, s.DivergenceObserved, s.KeysMigrated)
}

func waitUntil(what string, cond func() bool) {
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			panic("timed out waiting for " + what)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Println("✓", what)
}
