package memkv

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"
)

// TestShardedGetBatchSurvivesDeadShard: with replication 2, a batch
// read keeps every key readable when one shard dies — each key's other
// placement copy answers. This is the paper's redundancy claim applied
// to the batch path.
func TestShardedGetBatchSurvivesDeadShard(t *testing.T) {
	sc, servers := startShards(t, 4, ShardedConfig{Replication: 2, WriteQuorum: 2})
	ctx := context.Background()
	keys, vals := batchKeys("dbk", 80)
	putAll(t, sc, keys, vals)
	// Kill one shard that actually owns some of the keys.
	var dead string
	for addr := range servers {
		dead = addr
		break
	}
	servers[dead].Close()

	res, err := sc.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("get %d (%s, owners %v, dead %s): %v", i, keys[i], sc.Owners(keys[i]), dead, r.Err)
		}
		if !bytes.Equal(r.Result.Value, vals[i]) {
			t.Fatalf("get %d = %q, want %q", i, r.Result.Value, vals[i])
		}
	}
}

// TestShardedBatchesDuringRemoveShard: RemoveShard races a stream of
// batch gets. Individual reads may fail while the route swaps, but
// nothing may panic or wedge — and once the topology is stable, a full
// write+read cycle must succeed.
func TestShardedBatchesDuringRemoveShard(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()
	keys, vals := batchKeys("rmb", 40)
	putAll(t, sc, keys, vals)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Outcomes are allowed to be per-key errors mid-swap; the
			// invariant under test is no panic, no wedge, no global error
			// other than topology-is-changing.
			if _, err := sc.GetBatch(ctx, keys); err != nil {
				t.Errorf("GetBatch global error during RemoveShard: %v", err)
				return
			}
		}
	}()

	time.Sleep(30 * time.Millisecond)
	victim := sc.ShardAddrs()[0]
	if !sc.RemoveShard(victim) {
		t.Error("RemoveShard returned false")
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Stable topology: a full cycle must be clean.
	putAll(t, sc, keys, vals)
	res, err := sc.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !bytes.Equal(r.Result.Value, vals[i]) {
			t.Fatalf("post-remove get %d = %q, %v", i, r.Result.Value, r.Err)
		}
	}
}
