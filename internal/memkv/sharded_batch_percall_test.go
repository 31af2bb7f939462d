package memkv

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

// These tests pin what a batch of keys read at once gets from each read
// being an ordinary call: its loser is withdrawn and counted, and it
// costs its caller's goroutine however many copies it has.

// keyRead is one key's outcome in a getBatch.
type keyRead struct {
	Result core.Result[Versioned]
	Err    error
}

// getBatch reads every key at once, each an ordinary GetResult on its
// own goroutine — what a caller with many keys does (examples/muxbatch)
// — and returns the outcomes in key order.
func getBatch(sc *ShardedClient, keys []string) []keyRead {
	res := make([]keyRead, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i].Result, res[i].Err = sc.GetResult(context.Background(), key)
		}()
	}
	wg.Wait()
	return res
}

// batchKeys returns n distinct keys and their values.
func batchKeys(prefix string, n int) ([]string, [][]byte) {
	keys := make([]string, n)
	vals := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
		vals[i] = []byte(fmt.Sprintf("%s-v%d", prefix, i))
	}
	return keys, vals
}

// putAll stores the pairs through sc, one PutVersioned after another,
// and fails the test on any error.
func putAll(t *testing.T, sc *ShardedClient, keys []string, vals [][]byte) {
	t.Helper()
	for i := range keys {
		if _, err := sc.PutVersioned(context.Background(), keys[i], vals[i], 0); err != nil {
			t.Fatalf("put %s: %v", keys[i], err)
		}
	}
}

// TestShardedGetBatchWithdrawsLosers: with one of three servers slow, a
// key of a getBatch placed on it is answered by its other shard and the copy
// still parked at the slow server is withdrawn — the read ring counts
// it, as it does for a lone Get.
func TestShardedGetBatchWithdrawsLosers(t *testing.T) {
	// The hook is set before Listen and armed once the keys are stored:
	// the claim is about reads, and 200 write-all puts each waiting out
	// the stall would be most of the test's time.
	var stall atomic.Bool
	sc, _, _ := startAsyncShards(t, 3,
		ShardedConfig{Replication: 2, ReadStrategy: core.Fixed{Copies: 2}}, 5*time.Second,
		func(i int) func() time.Duration {
			if i != 0 {
				return nil
			}
			return func() time.Duration {
				if stall.Load() {
					return 100 * time.Millisecond
				}
				return 0
			}
		})
	keys, vals := batchKeys("wl", 200)
	putAll(t, sc, keys, vals)
	stall.Store(true)

	res := getBatch(sc, keys)
	launched := 0
	for i, r := range res {
		if r.Err != nil || string(r.Result.Value.Value) != string(vals[i]) {
			t.Fatalf("get %s = (%q, %v)", keys[i], r.Result.Value.Value, r.Err)
		}
		launched += r.Result.Launched
	}
	if launched != 2*len(keys) {
		t.Errorf("launched %d copies, want %d", launched, 2*len(keys))
	}
	var cancelled int64
	for _, m := range sc.RingStats().Members {
		cancelled += m.Cancelled
	}
	if cancelled == 0 {
		t.Error("no losing copy was withdrawn: batched reads must reclaim their losers like single reads")
	}
}

// TestShardedGetBatchOneGoroutinePerKey: with every reply held back
// 50 ms, all 2 000 two-copy reads of a getBatch are in flight at once,
// and the process runs one goroutine per key, not one per copy.
func TestShardedGetBatchOneGoroutinePerKey(t *testing.T) {
	var hold atomic.Bool // armed once the keys are stored
	sc, _, _ := startAsyncShards(t, 3,
		ShardedConfig{Replication: 2, ReadStrategy: core.Fixed{Copies: 2}}, 10*time.Second,
		func(int) func() time.Duration {
			return func() time.Duration {
				if hold.Load() {
					return 50 * time.Millisecond
				}
				return 0
			}
		})
	const n = 2000
	stored, vals := batchKeys("gk", 16)
	putAll(t, sc, stored, vals) // also dials every connection
	hold.Store(true)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = stored[i%len(stored)]
	}

	base := runtime.NumGoroutine()
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		max := 0
		for {
			select {
			case <-stop:
				peak <- max
				return
			default:
			}
			if g := runtime.NumGoroutine(); g > max {
				max = g
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	res := getBatch(sc, keys)
	close(stop)
	got := <-peak
	for i, r := range res {
		if r.Err != nil || r.Result.Launched != 2 {
			t.Fatalf("get %d = (launched %d, %v)", i, r.Result.Launched, r.Err)
		}
	}
	if limit := base + n + 100; got > limit {
		t.Errorf("peak %d goroutines during a %d-key batch at fan-out 2 (%d before it), want <= %d", got, n, base, limit)
	}
}
