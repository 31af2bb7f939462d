package memkv

import (
	"bytes"
	"context"
	"fmt"
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
	const n = 80
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("dbk-%d", i)
		vals[i] = []byte(fmt.Sprintf("dbv-%d", i))
	}
	perr, err := sc.PutBatch(ctx, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range perr {
		if e != nil {
			t.Fatalf("put %d: %v", i, e)
		}
	}
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

// TestShardedPutBatchDeadShardPartialErrors: with replication 1 there
// is no second copy, so a dead shard's keys fail per-key while the rest
// of the batch still lands — a shard failure must not poison the whole
// batch call.
func TestShardedPutBatchDeadShardPartialErrors(t *testing.T) {
	sc, servers := startShards(t, 3, ShardedConfig{Replication: 1, WriteQuorum: 1})
	ctx := context.Background()
	var dead string
	for addr := range servers {
		dead = addr
		break
	}
	servers[dead].Close()
	time.Sleep(20 * time.Millisecond)

	const n = 60
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("pbk-%d", i)
		vals[i] = []byte("x")
	}
	perr, err := sc.PutBatch(ctx, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	okCount, failCount := 0, 0
	for i, e := range perr {
		owner := sc.Owners(keys[i])[0]
		if owner == dead {
			if e == nil {
				t.Fatalf("put %d to dead shard succeeded", i)
			}
			failCount++
		} else {
			if e != nil {
				t.Fatalf("put %d to live shard %s: %v", i, owner, e)
			}
			okCount++
		}
	}
	if okCount == 0 || failCount == 0 {
		t.Fatalf("degenerate split ok=%d fail=%d: want keys on both sides", okCount, failCount)
	}
}

// TestShardedBatchesDuringRemoveShard: RemoveShard races a stream of
// batch puts and gets. Individual operations may fail while the route
// swaps, but nothing may panic or wedge — and once the topology is
// stable, a full write+read batch cycle must succeed.
func TestShardedBatchesDuringRemoveShard(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()
	const n = 40
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("rmb-%d", i)
		vals[i] = []byte(fmt.Sprintf("rv-%d", i))
	}

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
			if _, err := sc.PutBatch(ctx, keys, vals); err != nil {
				t.Errorf("PutBatch global error during RemoveShard: %v", err)
				return
			}
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
	perr, err := sc.PutBatch(ctx, keys, vals)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range perr {
		if e != nil {
			t.Fatalf("post-remove put %d: %v", i, e)
		}
	}
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
