package memkv

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// These tests pin a ShardedClient's governed reads: the default read
// strategy is the paper's threshold rule, core.LoadAware over two copies,
// and a read its governor clamps to one copy keeps the second owner as a
// failover, launched only if the first copy fails. Run with -race
// -count=5.

// TestShardedGovernedGetSurvivesDeadOwner: under a LoadAware read
// strategy that its concurrent callers keep gated, a Get launches one
// copy, and every key stays readable after one owner's server is
// closed: a read whose primary is dead fails over to the key's other
// owner.
func TestShardedGovernedGetSurvivesDeadOwner(t *testing.T) {
	// A threshold this low gates on any copy in flight beside the
	// sampling call's own, so eight callers keep the gate shut.
	gov := core.NewGovernor(0.01, 0)
	sc, servers := startShards(t, 4, ShardedConfig{
		Replication:  2,
		WriteQuorum:  2,
		ReadStrategy: core.LoadAwareWith(core.Fixed{Copies: 2}, gov),
	})
	keys, vals := batchKeys("gov", 80)
	putAll(t, sc, keys, vals)
	var dead string
	for addr := range servers {
		dead = addr
		break
	}
	servers[dead].Close()
	for i := 0; i < 50; i++ {
		gov.Observe(10) // start gated; the callers' own load keeps it there
	}

	const callers = 8
	var single, failovers atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (c*len(keys)/callers + i) % len(keys)
				res, err := sc.GetResult(context.Background(), keys[k])
				if err != nil {
					t.Errorf("Get(%s) (owners %v, dead %s, gated %v): %v", keys[k], sc.Owners(keys[k]), dead, gov.Gated(), err)
					return
				}
				if !bytes.Equal(res.Value.Value, vals[k]) {
					t.Errorf("Get(%s) = %q, want %q", keys[k], res.Value.Value, vals[k])
					return
				}
				if res.Launched == 1 {
					single.Add(1)
				} else if res.Index == 1 && sc.Owners(keys[k])[0] == dead {
					failovers.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d reads: %d launched one copy, %d failed over from the dead primary; governor %+v",
		callers*len(keys), single.Load(), failovers.Load(), gov.Stats())
	if single.Load() == 0 {
		t.Error("no read launched a single copy: the governor never gated, and no failover was needed")
	}
	if failovers.Load() == 0 {
		t.Error("no read failed over from the dead primary to the key's other owner")
	}
}

// TestShardedGetUnderCancellableContextAllocatesOnlyValue: a one-copy
// Get over mux clients — the default strategy clamped by its governor,
// or core.Fixed{Copies: 1} — is started through a call frame, which asks
// a cancellable context for its Done channel only from 1 ms on. A Get
// under a fresh context.WithCancel that ends inside that millisecond
// allocates the context and the returned value, nothing else, across
// client and servers.
func TestShardedGetUnderCancellableContextAllocatesOnlyValue(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	sc, _, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	gov := core.GovernorOf(sc.reads.Strategy())
	if gov == nil {
		t.Fatalf("the default read strategy %v carries no governor", sc.reads.Strategy())
	}
	const key = "key-000042"
	value := bytes.Repeat([]byte{'v'}, 1024)
	if _, err := sc.PutVersioned(context.Background(), key, value, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		gov.Observe(10)
	}
	base := testing.AllocsPerRun(500, func() {
		_, cancel := context.WithCancel(context.Background())
		cancel()
	})
	for _, tc := range []struct {
		name     string
		strategy core.Strategy // nil keeps the default
	}{
		{"gated default", nil},
		{"Fixed{Copies: 1}", core.Fixed{Copies: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.strategy != nil {
				sc.SetReadStrategy(tc.strategy)
			}
			get := func() {
				gov.Observe(10) // keep the default's gate shut
				ctx, cancel := context.WithCancel(context.Background())
				res, err := sc.GetResult(ctx, key)
				cancel()
				if err != nil || !bytes.Equal(res.Value.Value, value) || res.Launched != 1 {
					t.Fatalf("GetResult = (%d bytes, launched %d, %v), want the value from one copy", len(res.Value.Value), res.Launched, err)
				}
			}
			for i := 0; i < 100; i++ {
				get() // warm the frame pool, each frame making its timer
			}
			if avg := testing.AllocsPerRun(2000, get); avg > base+1 {
				t.Errorf("a one-copy Get under a fresh cancellable context allocates %.2f, want %.0f: the context's %.0f and the value", avg, base+1, base)
			}
		})
	}
}

// TestShardedGetOptionsAllocateNothing: a per-call option is a value, so
// a one-copy GetResult with WithFanoutCap or WithLabel allocates what
// one with no option does, across client and servers; so does a quorum
// read over both owners, WithQuorum(2), whose vote list is pooled, whose
// strategy override is boxed once and whose option list is on the
// stack. (Each value is given back, so all read 0.)
func TestShardedGetOptionsAllocateNothing(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	sc, _, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2, ReadStrategy: core.Fixed{Copies: 1}}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	ctx := context.Background()
	const key = "key-000042"
	value := bytes.Repeat([]byte{'v'}, 1024)
	if _, err := sc.PutVersioned(ctx, key, value, 0); err != nil {
		t.Fatal(err)
	}
	perGet := func(opts ...core.CallOption) float64 {
		get := func() {
			res, err := sc.GetResult(ctx, key, opts...)
			if err != nil || !bytes.Equal(res.Value.Value, value) {
				t.Fatalf("GetResult = (%d bytes, %v), want the value", len(res.Value.Value), err)
			}
			Release(res.Value.Value)
		}
		for i := 0; i < 100; i++ {
			get()
		}
		return testing.AllocsPerRun(2000, get)
	}
	base := perGet()
	for _, tc := range []struct {
		name string
		opt  core.CallOption
	}{
		{"WithFanoutCap(1)", core.WithFanoutCap(1)},
		{"WithLabel", core.WithLabel("checkout")},
		{"WithQuorum(2)", core.WithQuorum(2)},
	} {
		avg := perGet(tc.opt)
		t.Logf("GetResult with %s: %.2f allocs, without an option %.2f", tc.name, avg, base)
		if avg > base {
			t.Errorf("GetResult with %s allocates %.2f, without an option %.2f: want no more", tc.name, avg, base)
		}
	}
}
