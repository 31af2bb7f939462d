package memkv

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

// These tests pin the rules the one read keeps with and without a
// quorum. Both are one ring call over the same versioned read; what
// differs is what a miss and the key's final second mean to each.

// heldShards starts two shards under a ShardedClient that launches both
// owners of a read at once, with each server's replies held back while
// its hold is set. Its connections are dialed, so every read copy is a
// started request.
func heldShards(t *testing.T) (*ShardedClient, []*MuxClient, *[2]atomic.Bool) {
	t.Helper()
	hold := new([2]atomic.Bool)
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, ReadStrategy: core.Fixed{Copies: 2}}, 5*time.Second,
		func(i int) func() time.Duration {
			return func() time.Duration {
				if hold[i].Load() {
					return 50 * time.Millisecond
				}
				return 0
			}
		})
	warmPuts(t, sc, muxes)
	return sc, muxes, hold
}

// onOneOwner writes key straight to the shard m and to no other owner,
// and returns the version it wrote.
func onOneOwner(t *testing.T, sc *ShardedClient, m *MuxClient, key string, value []byte, ttl time.Duration) uint64 {
	t.Helper()
	ver := sc.NextVersion()
	if _, applied, err := m.PutV(context.Background(), key, value, ttl, ver); err != nil || !applied {
		t.Fatalf("PutV to %s = (applied %v, %v)", m.Addr(), applied, err)
	}
	return ver
}

// TestShardedGetWitnessesVersion: every read applies the Lamport receive
// rule. A version far ahead of this client's clock, written straight to
// the owners, read back through Get, moves the clock past it — so the
// client's next write of the key is newer than what it read.
func TestShardedGetWitnessesVersion(t *testing.T) {
	sc, servers := startShards(t, 2, ShardedConfig{Replication: 2})
	ctx := context.Background()
	future := uint64(time.Now().Add(24 * time.Hour).UnixNano())
	for _, owner := range sc.Owners("ahead") {
		if _, applied, err := sc.VersionedShard(owner).PutV(ctx, "ahead", []byte("from the future"), 0, future); err != nil || !applied {
			t.Fatalf("PutV to %s = (applied %v, %v)", owner, applied, err)
		}
	}
	if v, err := sc.Get(ctx, "ahead"); err != nil || string(v) != "from the future" {
		t.Fatalf("Get = (%q, %v)", v, err)
	}
	if next := sc.NextVersion(); next <= future {
		t.Fatalf("NextVersion after reading version %d = %d: Get did not witness the version it read", future, next)
	}
	ver, err := sc.PutVersioned(ctx, "ahead", []byte("now"), 0)
	if err != nil {
		t.Fatal(err)
	}
	for addr, srv := range servers {
		if !holds(srv, "ahead", ver) {
			t.Errorf("%s does not hold the write at %d: it lost to the version read", addr, ver)
		}
	}
}

// TestShardedHedgedGetFallsThroughMiss: to Get a miss is a failed copy.
// A key held by one owner only, whose reply is held back so the other
// owner's miss always arrives first, is still read: the call waits for
// the copy that has it.
func TestShardedHedgedGetFallsThroughMiss(t *testing.T) {
	sc, muxes, hold := heldShards(t)
	ctx := context.Background()
	holder := muxIndex(t, muxes, sc.Owners("lonely")[1])
	ver := onOneOwner(t, sc, muxes[holder], "lonely", []byte("here"), 0)
	hold[holder].Store(true)

	if v, err := sc.Get(ctx, "lonely"); err != nil || string(v) != "here" {
		t.Fatalf("Get = (%q, %v), want the one owner's value", v, err)
	}
	var outs []core.Outcome[Versioned]
	res, err := sc.GetResult(ctx, "lonely", core.WithCollectOutcomes(&outs))
	if err != nil || string(res.Value.Value) != "here" || res.Value.Version != ver || res.Index != 1 {
		t.Fatalf("GetResult = (%+v, %v), want \"here\" at %d from copy 1", res, err, ver)
	}
	if len(outs) != 2 || !errors.Is(outs[0].Err, ErrNotFound) || outs[1].Err != nil {
		t.Fatalf("outcomes %+v, want the miss first, then the value", outs)
	}
}

// divergenceSink records Divergence reports whole.
type divergenceSink struct {
	mu      sync.Mutex
	reports []divergence
}

type divergence struct {
	key     string
	value   string
	version uint64
	ttlSecs uint32
	stale   []string
}

func (d *divergenceSink) Divergence(key string, value []byte, version uint64, ttlSecs uint32, stale []string) {
	d.mu.Lock()
	d.reports = append(d.reports, divergence{key, string(value), version, ttlSecs, append([]string(nil), stale...)})
	d.mu.Unlock()
}

func (*divergenceSink) WriteMissed(string, []byte, uint64, time.Duration, string) {}

// TestShardedGetQuorumCountsMissAsAnswer: to a quorum read a miss is an
// answer of version 0. With the same key on one owner only and the
// miss arriving first, a 2-of-2 quorum read holds: it waits for the
// owner that has the key rather than failing on the miss, returns the
// value, and reports the missing owner for repair — with the TTL the key
// has left, never more whole seconds than remain.
func TestShardedGetQuorumCountsMissAsAnswer(t *testing.T) {
	sc, muxes, hold := heldShards(t)
	ctx := context.Background()
	owners := sc.Owners("lonely")
	holder := muxIndex(t, muxes, owners[1])
	ver := onOneOwner(t, sc, muxes[holder], "lonely", []byte("here"), 10*time.Second)
	hold[holder].Store(true)
	sink := &divergenceSink{}
	sc.SetRepairSink(sink)

	res, err := sc.GetResult(ctx, "lonely", core.WithQuorum(2))
	if val, got := res.Value.Value, res.Value.Version; err != nil || string(val) != "here" || got != ver {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want \"here\" at %d", val, got, err, ver)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.reports) != 1 {
		t.Fatalf("divergence reports %+v, want one", sink.reports)
	}
	d := sink.reports[0]
	if d.key != "lonely" || d.value != "here" || d.version != ver || len(d.stale) != 1 || d.stale[0] != owners[0] {
		t.Errorf("divergence %+v, want \"here\" at %d pushed to the missing owner %s", d, ver, owners[0])
	}
	if d.ttlSecs < 8 || d.ttlSecs > 9 {
		t.Errorf("divergence TTL %d s for a key with under 10 s left, want 8 or 9", d.ttlSecs)
	}
}

// TestShardedTTLFinalSecond: a key with a 1 s TTL, read right after its
// write, is in its final second. Get returns it, since a key is readable
// until its deadline; a quorum read, whose TTL feeds read repair, forfeits
// the final second and reports the key absent.
func TestShardedTTLFinalSecond(t *testing.T) {
	sc, _, _ := heldShards(t)
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "brief", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := sc.Get(ctx, "brief"); err != nil || string(v) != "v" {
		t.Fatalf("Get in the key's final second = (%q, %v), want v", v, err)
	}
	if res, err := sc.GetResult(ctx, "brief", core.WithQuorum(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quorum GetResult in the key's final second = (%q, %d, %v), want ErrNotFound", res.Value.Value, res.Value.Version, err)
	}
}

// TestShardedQuorumReadRefusesUnaskable: a quorum read of a key no
// server would accept, or over a client with no shards, fails before
// any copy is sent, as a read without a quorum does.
func TestShardedQuorumReadRefusesUnaskable(t *testing.T) {
	ctx := context.Background()
	sc, _, _ := heldShards(t)
	for _, key := range []string{"", "has space"} {
		if _, err := sc.GetResult(ctx, key, core.WithQuorum(2)); err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("quorum read of %q = %v, want a key error", key, err)
		}
	}
	empty := NewShardedClient(ShardedConfig{})
	if _, err := empty.GetResult(ctx, "k", core.WithQuorum(1)); !errors.Is(err, core.ErrNoReplicas) {
		t.Errorf("quorum read with no shards = %v, want ErrNoReplicas", err)
	}
	if _, err := empty.Get(ctx, "k"); !errors.Is(err, core.ErrNoReplicas) {
		t.Errorf("read with no shards = %v, want ErrNoReplicas", err)
	}
}
