package repair

import (
	"context"
	"fmt"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
	"redundancy/internal/ring"
)

// startCluster launches n live v2 shards under a ShardedClient.
func startCluster(t *testing.T, n int, cfg memkv.ShardedConfig) (*memkv.ShardedClient, map[string]*memkv.Server) {
	t.Helper()
	servers := make(map[string]*memkv.Server, n)
	clients := make([]memkv.Backend, n)
	for i := 0; i < n; i++ {
		srv, addr := startShard(t)
		servers[addr] = srv
		clients[i] = memkv.NewMuxClient(addr, 2*time.Second)
	}
	sc := memkv.NewShardedClient(cfg, clients...)
	t.Cleanup(func() { sc.Close() })
	return sc, servers
}

func startShard(t *testing.T) (*memkv.Server, string) {
	t.Helper()
	srv := memkv.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

// fastConfig keeps every background cadence short for tests.
func fastConfig() Config {
	return Config{ReplayInterval: 10 * time.Millisecond}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A missed quorum-write copy becomes a hint, and the hint replays once
// the owner comes back — the full hinted-handoff loop against live
// servers, including the dead owner restarting on its old address.
func TestHintedHandoffReplaysOnRecovery(t *testing.T) {
	sc, servers := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	key := "hh-key"
	owners := sc.Owners(key)
	downAddr := owners[1]
	servers[downAddr].Close()

	ver, err := sc.PutVersioned(ctx, key, []byte("durable"), 0)
	if err != nil {
		t.Fatalf("PutVersioned with dead secondary: %v", err)
	}

	// The missed copy must surface as a queued (or already persisted)
	// hint targeting the dead owner.
	waitFor(t, 10*time.Second, "hint queued", func() bool {
		return m.Stats().HintsQueued >= 1
	})

	// Resurrect the owner on its old address; the client's backoff
	// redialer reconnects and the replay loop lands the hint.
	srv2 := memkv.NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	defer srv2.Close()

	waitFor(t, 15*time.Second, "hint replayed", func() bool {
		return m.Stats().HintsReplayed >= 1
	})
	// The recovered owner holds the value at the original version.
	vb := sc.VersionedShard(downAddr)
	waitFor(t, 5*time.Second, "value at recovered owner", func() bool {
		_, v, _, err := vb.GetV(ctx, key)
		return err == nil && v == ver
	})
	// The replay loop counts the replay before it retires the hint.
	waitFor(t, 5*time.Second, "no hint pending after replay", func() bool {
		return m.Stats().HintsPending == 0
	})
}

// Hints for an owner that left the topology reroute through the ring to
// the key's current owners instead of waiting forever — whether the hint
// came from a missed write or from a read repair.
func TestHintReroutesWhenOwnerRemoved(t *testing.T) {
	for _, tc := range []struct {
		name string
		// miss leaves departed without the key's newest version, reports
		// it to m, and returns that version. departed's server is closed
		// and departed is no longer in the topology when miss returns.
		miss func(t *testing.T, sc *memkv.ShardedClient, m *Manager, key, departed string, srv *memkv.Server) uint64
	}{
		{"write missed", func(t *testing.T, sc *memkv.ShardedClient, m *Manager, key, departed string, srv *memkv.Server) uint64 {
			srv.Close()
			ver, err := sc.PutVersioned(context.Background(), key, []byte("rerouted"), 0)
			if err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "hint queued", func() bool {
				return m.Stats().HintsQueued >= 1
			})
			// The owner is gone for good: removing it makes replay reroute
			// the hint through the ring at its original version.
			sc.RemoveShard(departed)
			return ver
		}},
		{"divergence", func(t *testing.T, sc *memkv.ShardedClient, m *Manager, key, departed string, srv *memkv.Server) uint64 {
			srv.Close()
			sc.RemoveShard(departed)
			ver := sc.NextVersion()
			m.Divergence(key, []byte("rerouted"), ver, 0, []string{departed})
			return ver
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, servers := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 1})
			m := Attach(sc, fastConfig())
			defer m.Close()
			ctx := context.Background()

			key := "rr-key"
			departed := sc.Owners(key)[1]
			ver := tc.miss(t, sc, m, key, departed, servers[departed])
			waitFor(t, 10*time.Second, "hint rerouted", func() bool {
				return m.Stats().HintsReplayed >= 1
			})
			// Every current owner of the key holds it.
			for _, o := range sc.Owners(key) {
				vb := sc.VersionedShard(o)
				waitFor(t, 5*time.Second, "value at "+o, func() bool {
					_, v, _, err := vb.GetV(ctx, key)
					return err == nil && v >= ver
				})
			}
		})
	}
}

// The hint queue is bounded: at the entry cap the oldest hints are
// dropped and counted; a hint bigger than the whole byte budget is
// refused outright.
func TestHintQueueBounds(t *testing.T) {
	sc, _ := startCluster(t, 1, memkv.ShardedConfig{})
	// bounded builds a Manager whose queue holds at most entries hints
	// and bytes bytes.
	bounded := func(entries, bytes int) *Manager {
		m := NewManager(sc, Config{})
		m.hints.maxEntries, m.hints.maxBytes = entries, bytes
		return m
	}
	m := bounded(4, 1<<20)
	for i := 0; i < 10; i++ {
		m.WriteMissed(fmt.Sprintf("cap-%d", i), []byte("v"), uint64(i+1), 0, "owner:1")
	}
	st := m.Stats()
	if st.HintsPending != 4 {
		t.Errorf("HintsPending = %d, want 4", st.HintsPending)
	}
	if st.HintsDropped != 6 {
		t.Errorf("HintsDropped = %d, want 6 oldest dropped", st.HintsDropped)
	}
	if st.HintsQueued != 10 {
		t.Errorf("HintsQueued = %d, want 10", st.HintsQueued)
	}

	m2 := bounded(100, 128)
	m2.WriteMissed("big", make([]byte, 4096), 1, 0, "owner:1")
	if st := m2.Stats(); st.HintsPending != 0 || st.HintsDropped != 1 {
		t.Errorf("oversized hint: pending=%d dropped=%d, want 0/1", st.HintsPending, st.HintsDropped)
	}

	// Byte cap evicts oldest until the new hint fits.
	m3 := bounded(100, 3*100)
	for i := 0; i < 4; i++ {
		m3.WriteMissed(fmt.Sprintf("b%d", i), make([]byte, 20), uint64(i+1), 0, "o")
	}
	if st := m3.Stats(); st.HintBytes > 300 || st.HintsDropped == 0 {
		t.Errorf("byte cap: bytes=%d dropped=%d", st.HintBytes, st.HintsDropped)
	}
}

// RepairSink lends WriteMissed and Divergence their value for the call
// only — a writer reuses its slice the moment its put returns — so the
// manager queues copies: overwriting the slice afterwards changes neither
// the missed write's hint nor the read repair's.
func TestSinkKeepsItsOwnCopyOfTheValue(t *testing.T) {
	sc, _ := startCluster(t, 1, memkv.ShardedConfig{})
	m := NewManager(sc, Config{})
	lent := []byte("the bytes that were written")
	m.WriteMissed("k", lent, 7, 0, "owner:1")
	m.Divergence("k", lent, 7, 0, []string{"owner:1"})
	for i := range lent {
		lent[i] = '!'
	}
	hints := m.hints.snapshot()
	if len(hints) != 2 {
		t.Fatalf("queued %d hints, want one for the missed write and one for the read repair", len(hints))
	}
	for i, h := range hints {
		if string(h.value) != "the bytes that were written" {
			t.Errorf("hint %d carries %q: the reporter's slice, not a copy of it", i, h.value)
		}
	}
}

// A hint lives in the manager's memory and nowhere else: a manager that
// queued one, replayed it against a dead owner for a while and closed
// leaves no trace in any shard's keyspace, so a merged scan — what the
// gateway's GET /scan serves — returns exactly the keys users wrote.
func TestScanMergedReturnsOnlyUserKeys(t *testing.T) {
	sc, servers := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	ctx := context.Background()

	key := "user-key"
	downAddr := sc.Owners(key)[1]
	servers[downAddr].Close()
	if _, err := sc.PutVersioned(ctx, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "hint queued", func() bool {
		return m.Stats().HintsQueued >= 1
	})
	time.Sleep(20 * fastConfig().ReplayInterval) // replay ticks against the dead owner
	m.Close()

	srv2 := memkv.NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	defer srv2.Close()
	var entries []memkv.ScanEntry
	waitFor(t, 10*time.Second, "a merged scan over every shard", func() bool {
		var err error
		entries, _, err = sc.ScanMerged(ctx, "", 100)
		return err == nil
	})
	if len(entries) != 1 || entries[0].Key != key {
		keys := make([]string, len(entries))
		for i, e := range entries {
			keys[i] = e.Key
		}
		t.Fatalf("ScanMerged keys = %q, want only the user's %q", keys, key)
	}
}

// A hint a closed manager lost is recovered by a full anti-entropy
// pass: Rebalance from an empty placement re-pushes every key the
// shards hold, so the owner that missed the write gets it.
func TestFullPassRecoversLostHints(t *testing.T) {
	sc, servers := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	ctx := context.Background()

	key := "lost-hint"
	downAddr := sc.Owners(key)[1]
	servers[downAddr].Close()
	ver, err := sc.PutVersioned(ctx, key, []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "hint queued", func() bool {
		return m.Stats().HintsQueued >= 1
	})
	m.Close() // the hint is gone with the manager

	srv2 := memkv.NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	defer srv2.Close()
	m2 := NewManager(sc, Config{})
	vb := sc.VersionedShard(downAddr)
	waitFor(t, 10*time.Second, "the restarted owner converged", func() bool {
		if _, err := m2.Rebalance(ctx, ring.Placement{}, sc.PlacementSnapshot()); err != nil {
			return false // a shard is still redialing
		}
		_, v, _, err := vb.GetV(ctx, key)
		return err == nil && v == ver
	})
}

// The anti-entropy migrator: after AddShard, Rebalance streams
// exactly the remapped keys, and every owner under the new placement
// ends up holding every key at the version the writer minted.
func TestRebalanceConvergesAfterAddShard(t *testing.T) {
	sc, _ := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 2})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	const n = 60
	wantVer := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("mig-%d", i)
		ver, err := sc.PutVersioned(ctx, key, []byte(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		wantVer[key] = ver
	}

	prev := sc.PlacementSnapshot()
	srv, addr := startShard(t)
	_ = srv
	sc.AddShard(memkv.NewMuxClient(addr, 2*time.Second))
	cur := sc.PlacementSnapshot()

	st, err := m.Rebalance(ctx, prev, cur)
	if err != nil {
		t.Fatalf("Rebalance: %v (stats %+v)", err, st)
	}
	if st.KeysMigrated == 0 {
		t.Fatalf("no keys migrated by a 3->4 reshard: %+v", st)
	}

	for key, ver := range wantVer {
		for _, owner := range cur.Owners(key) {
			vb := sc.VersionedShard(owner)
			_, v, _, err := vb.GetV(ctx, key)
			if err != nil || v != ver {
				t.Fatalf("after rebalance, %s@%s: version %d err %v, want %d", key, owner, v, err, ver)
			}
		}
	}
	// Idempotence: a second pass over the same delta pushes nothing new —
	// every put is refused as stale/duplicate.
	st2, err := m.Rebalance(ctx, prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	if st2.PutsApplied != 0 {
		t.Errorf("second pass applied %d puts, want 0 (idempotent)", st2.PutsApplied)
	}
}

// A quorum read that observes a stale replica triggers an asynchronous
// read repair that heals it — without the reader doing anything else.
func TestReadRepairHealsStaleReplica(t *testing.T) {
	sc, _ := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 2})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	key := "heal-me"
	if _, err := sc.PutVersioned(ctx, key, []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	owners := sc.Owners(key)
	// Stale the secondary: newer write lands on the primary only.
	newer := sc.NextVersion()
	if _, _, err := sc.VersionedShard(owners[0]).PutV(ctx, key, []byte("new"), 0, newer); err != nil {
		t.Fatal(err)
	}

	res, err := sc.GetResult(ctx, key, core.WithQuorum(2))
	if val, ver := res.Value.Value, res.Value.Version; err != nil || string(val) != "new" || ver != newer {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want (new, %d)", val, ver, err, newer)
	}
	// The owner holds the pushed value before the push returns and is
	// counted, so wait for both.
	waitFor(t, 10*time.Second, "stale replica healed and the replay counted", func() bool {
		_, v, _, err := sc.VersionedShard(owners[1]).GetV(ctx, key)
		return err == nil && v == newer && m.Stats().HintsReplayed >= 1
	})
	st := m.Stats()
	if st.DivergenceObserved < 1 || st.HintsReplayed < 1 {
		t.Errorf("repair stats %+v", st)
	}
}

// A read repair whose push fails is not lost: it is a hint like any
// missed write, retried with the owner's backoff until the owner comes
// back and holds the newest version — without another read.
func TestReadRepairRetriesUntilOwnerReturns(t *testing.T) {
	sc, servers := startCluster(t, 3, memkv.ShardedConfig{Replication: 2, WriteQuorum: 2})
	m := NewManager(sc, fastConfig())
	sc.SetRepairSink(m)
	defer m.Close()
	ctx := context.Background()

	key := "retry-me"
	if _, err := sc.PutVersioned(ctx, key, []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	owners := sc.Owners(key)
	newer := sc.NextVersion()
	if _, _, err := sc.VersionedShard(owners[0]).PutV(ctx, key, []byte("new"), 0, newer); err != nil {
		t.Fatal(err)
	}
	// The quorum read names the stale owner while it still answers; its
	// server then dies before the manager makes its first push.
	if _, err := sc.GetResult(ctx, key, core.WithQuorum(2)); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.DivergenceObserved != 1 {
		t.Fatalf("DivergenceObserved = %d, want 1", st.DivergenceObserved)
	}
	downAddr := owners[1]
	servers[downAddr].Close()
	m.Start()
	time.Sleep(20 * fastConfig().ReplayInterval) // pushes against the dead owner

	srv2 := memkv.NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	defer srv2.Close()
	vb := sc.VersionedShard(downAddr)
	waitFor(t, 15*time.Second, "the returned owner holds the newest version", func() bool {
		_, v, _, err := vb.GetV(ctx, key)
		return err == nil && v == newer
	})
}

// Drain pushes everything off a removed-but-reachable shard to the
// current owners — the graceful decommission path.
func TestDrainRemovedShard(t *testing.T) {
	sc, _ := startCluster(t, 3, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	wantVer := make(map[string]uint64)
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("drain-%d", i)
		ver, err := sc.PutVersioned(ctx, key, []byte(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		wantVer[key] = ver
	}
	victim := sc.ShardAddrs()[0]
	src := sc.VersionedShard(victim) // keep the handle before removal
	if src == nil {
		t.Fatal("victim has no versioned backend")
	}
	sc.RemoveShard(victim)

	st, err := m.Drain(ctx, src)
	if err != nil {
		t.Fatalf("Drain: %v (stats %+v)", err, st)
	}
	for key, ver := range wantVer {
		res, err := sc.GetResult(ctx, key, core.WithQuorum(1))
		if got, v := res.Value.Value, res.Value.Version; err != nil || v < ver {
			t.Fatalf("after drain, %s: %q v%d err %v, want >= v%d", key, got, v, err, ver)
		}
	}
}
