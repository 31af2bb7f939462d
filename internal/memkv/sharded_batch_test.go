package memkv

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestShardedGetBatchSurvivesDeadShard: with replication 2, a getBatch
// keeps every key readable when one shard dies — each key's other
// placement copy answers. This is the paper's redundancy claim applied
// to many reads at once.
func TestShardedGetBatchSurvivesDeadShard(t *testing.T) {
	sc, servers := startShards(t, 4, ShardedConfig{Replication: 2, WriteQuorum: 2})
	keys, vals := batchKeys("dbk", 80)
	putAll(t, sc, keys, vals)
	// Kill one shard that actually owns some of the keys.
	var dead string
	for addr := range servers {
		dead = addr
		break
	}
	servers[dead].Close()

	for i, r := range getBatch(sc, keys) {
		if r.Err != nil {
			t.Fatalf("get %d (%s, owners %v, dead %s): %v", i, keys[i], sc.Owners(keys[i]), dead, r.Err)
		}
		if !bytes.Equal(r.Result.Value.Value, vals[i]) {
			t.Fatalf("get %d = %q, want %q", i, r.Result.Value.Value, vals[i])
		}
	}
}

// TestShardedBatchesDuringRemoveShard: RemoveShard races a stream of
// getBatch rounds. Individual reads may fail while the route swaps, but
// nothing may panic or wedge — and once the topology is stable, a full
// write+read cycle must succeed.
func TestShardedBatchesDuringRemoveShard(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{Replication: 2, WriteQuorum: 1})
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
			// invariant under test is no panic and no wedge.
			getBatch(sc, keys)
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
	for i, r := range getBatch(sc, keys) {
		if r.Err != nil || !bytes.Equal(r.Result.Value.Value, vals[i]) {
			t.Fatalf("post-remove get %d = %q, %v", i, r.Result.Value.Value, r.Err)
		}
	}
}
