package repair

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"redundancy/internal/memkv"
)

// seedSrc plants an entry directly on a backend, bypassing placement, so
// drain tests control exactly what sits on the source shard.
func seedSrc(t *testing.T, vb memkv.Backend, key, val string, ttl time.Duration, ver uint64) {
	t.Helper()
	if _, applied, err := vb.PutV(context.Background(), key, []byte(val), ttl, ver); err != nil || !applied {
		t.Fatalf("seed %s: applied=%v err=%v", key, applied, err)
	}
}

// Drain's per-entry accounting: TTLs survive the move without being
// stretched or dropped, a newer version already at the destination wins
// (stale put), and the source keeps every key — a drain copies, it
// never removes.
func TestDrainStatsAndEdges(t *testing.T) {
	sc, _ := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	victim := sc.ShardAddrs()[0]
	src := sc.VersionedShard(victim)
	survivor := sc.ShardAddrs()[1]
	dst := sc.VersionedShard(survivor)
	if src == nil || dst == nil {
		t.Fatal("shards are not versioned")
	}
	sc.RemoveShard(victim)

	seedSrc(t, src, "plain", "v", 0, 100)
	seedSrc(t, src, "ttl", "v", time.Hour, 100)
	seedSrc(t, src, "stale", "old", 0, 100)
	// The destination already holds "stale" at a newer version: the
	// drain push must lose to it.
	if _, applied, err := dst.PutV(ctx, "stale", []byte("new"), 0, 200); err != nil || !applied {
		t.Fatalf("pre-seed dst: %v", err)
	}

	st, err := m.Drain(ctx, src)
	if err != nil {
		t.Fatalf("Drain: %v (stats %+v)", err, st)
	}
	if st.KeysScanned != 3 {
		t.Errorf("KeysScanned = %d, want 3", st.KeysScanned)
	}
	if st.KeysMigrated != 3 || st.PutsApplied != 2 || st.PutsStale != 1 || st.PutsFailed != 0 {
		t.Errorf("stats = %+v, want 3 migrated / 2 applied / 1 stale / 0 failed", st)
	}

	if _, ver, _, err := dst.GetV(ctx, "plain"); err != nil || ver != 100 {
		t.Errorf("plain at destination: v%d err %v, want v100", ver, err)
	}
	if _, ver, ttl, err := dst.GetV(ctx, "ttl"); err != nil || ver != 100 || ttl == 0 || ttl > 3600 {
		t.Errorf("ttl key at destination: v%d ttl %ds err %v, want v100 with 0 < ttl <= 3600", ver, ttl, err)
	}
	if val, ver, _, err := dst.GetV(ctx, "stale"); err != nil || ver != 200 || string(val) != "new" {
		t.Errorf("stale key at destination: %q v%d err %v — drain clobbered a newer write", val, ver, err)
	}
	for _, key := range []string{"plain", "ttl", "stale"} {
		if _, ver, _, err := src.GetV(ctx, key); err != nil || ver != 100 {
			t.Errorf("source lost %s in the drain: v%d err %v, want v100", key, ver, err)
		}
	}
}

// Drain against a cluster whose only remaining owner is down: every
// push fails, the failures are counted, and Drain itself still returns
// (an unreachable destination is a per-key outcome, not a pass abort).
func TestDrainUnreachableOwner(t *testing.T) {
	sc, servers := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	victim := sc.ShardAddrs()[0]
	survivor := sc.ShardAddrs()[1]
	src := sc.VersionedShard(victim)
	sc.RemoveShard(victim)

	const n = 5
	for i := 0; i < n; i++ {
		seedSrc(t, src, fmt.Sprintf("k%d", i), "v", 0, 100)
	}
	servers[survivor].Close() // every push destination is dark; the source stays up

	st, err := m.Drain(ctx, src)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st.PutsFailed != n || st.PutsApplied != 0 {
		t.Errorf("stats = %+v, want %d failed / 0 applied", st, n)
	}
}

// A cancelled context aborts the pass before it scans anything.
func TestDrainCancelled(t *testing.T) {
	sc, _ := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()

	victim := sc.ShardAddrs()[0]
	src := sc.VersionedShard(victim)
	sc.RemoveShard(victim)
	seedSrc(t, src, "k", "v", 0, 100)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := m.Drain(ctx, src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with cancelled ctx: err %v, want context.Canceled", err)
	}
	if st.KeysMigrated != 0 {
		t.Errorf("cancelled drain migrated %d keys", st.KeysMigrated)
	}
}
