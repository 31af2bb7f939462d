// watchcas: conditional writes and redundant event streams — the
// paper's redundancy argument applied to long-lived watches.
//
// A request/response call hides a slow replica by racing copies and
// keeping the first answer. A watch is a stream, so the same trick
// becomes: subscribe to EVERY replica that can emit the event and
// deliver whichever copy arrives first, deduplicated by (key, version)
// so the consumer sees each event exactly once. Three acts:
//
//  1. Leader election by CAS: racing writers all try to create the
//     same key with expect=0; the conditional serializes at the key's
//     primary owner, so exactly one wins and the rest see
//     ErrCASConflict with the winner's version to retry from.
//  2. A redundant prefix watch: every write under the prefix arrives
//     exactly once even though every replica pushed a copy — the
//     duplicate count shows the suppressed redundancy.
//  3. A shard dies mid-stream: the surviving subscription keeps
//     delivering every event (nothing missed, nothing duplicated),
//     and a TTL'd key's active expiry arrives as an event like any
//     put.
//
// Run with: go run ./examples/watchcas
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
)

func main() {
	ctx := context.Background()

	// A 2-shard cluster, every key on both shards (replication 2).
	servers := make(map[string]*memkv.Server)
	var clients []memkv.Backend
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := memkv.NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		servers[addr.String()] = srv
		addrs = append(addrs, addr.String())
		clients = append(clients, memkv.NewMuxClient(addr.String(), 5*time.Second))
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication: 2,
		WriteQuorum: 1,
	}, clients...)
	defer sc.Close()

	// --- Act 1: leader election by CAS ---------------------------------
	fmt.Println("== Act 1: leader election by CAS (expect 0 = create if absent)")
	var mu sync.Mutex
	var winner string
	var wg sync.WaitGroup
	conflicts := 0
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("candidate-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sc.CAS(ctx, "job/leader", []byte(name), 0, 0)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				winner = name
			} else if errors.Is(err, memkv.ErrCASConflict) {
				conflicts++
			}
		}()
	}
	wg.Wait()
	// Read both copies: with WriteQuorum 1 the CAS returned once the
	// primary applied it, and the copy to the other owner may still be
	// on its way.
	val, err := sc.Get(ctx, "job/leader", core.WithQuorum(2))
	if err != nil {
		panic(err)
	}
	fmt.Printf("   8 candidates raced: %q won, %d saw ErrCASConflict, quorum read agrees: %q\n\n",
		winner, conflicts, val)

	// --- Act 2: a redundant prefix watch -------------------------------
	fmt.Println("== Act 2: redundant prefix watch (subscribed to BOTH replicas)")
	watch, err := sc.WatchPrefix(ctx, "job/", 256)
	if err != nil {
		panic(err)
	}
	defer watch.Close()
	for i := 0; i < 3; i++ {
		if _, err := sc.PutVersioned(ctx, fmt.Sprintf("job/task-%d", i), []byte("queued"), 0); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 3; i++ {
		ev := <-watch.Events()
		fmt.Printf("   event: %-6s %s (version %d)\n", ev.Type, ev.Key, ev.Version)
	}
	st := watch.Stats()
	fmt.Printf("   delivered %d events exactly once; %d replica copies suppressed by the (key, version) filter\n\n",
		st.Delivered, st.Duplicates)

	// --- Act 3: a shard dies mid-stream; expiry is an event ------------
	fmt.Println("== Act 3: kill one replica mid-stream; TTL expiry arrives as an event")
	// CAS serializes at the key's PRIMARY owner — that is the whole
	// exactly-one-winner design — so the demo kills the OTHER replica:
	// conditional writes need the primary, redundant watches don't care.
	primary := sc.PlacementSnapshot().Owners("job/lease")[0]
	victim := addrs[0]
	if victim == primary {
		victim = addrs[1]
	}
	servers[victim].Close()
	fmt.Printf("   shard %s killed (the lease's primary %s survives)\n", victim, primary)
	if _, err := sc.CAS(ctx, "job/lease", []byte(winner), time.Second, 0); err != nil {
		panic(err)
	}
	fmt.Println("   wrote job/lease with a 1s TTL through the surviving replica (quorum 1)")
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev := <-watch.Events():
			fmt.Printf("   event: %-6s %s (version %d)\n", ev.Type, ev.Key, ev.Version)
			if ev.Type == memkv.EventExpire && ev.Key == "job/lease" {
				st = watch.Stats()
				fmt.Printf("   the lease expired on schedule — active sweeper, no reader involved\n")
				fmt.Printf("   totals: %d delivered, %d duplicates suppressed, %d resubscribes\n",
					st.Delivered, st.Duplicates, st.Resubscribes)
				return
			}
		case <-deadline:
			panic("no expiry event")
		}
	}
}
