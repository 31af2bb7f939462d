package memkv

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

// startShards launches n live servers and returns a ShardedClient over
// them plus the servers by address.
func startShards(t *testing.T, n int, cfg ShardedConfig) (*ShardedClient, map[string]*Server) {
	t.Helper()
	servers := make(map[string]*Server, n)
	clients := make([]Backend, n)
	for i := 0; i < n; i++ {
		srv, addr := startServer(t)
		servers[addr] = srv
		clients[i] = NewMuxClient(addr, 2*time.Second)
	}
	sc := NewShardedClient(cfg, clients...)
	t.Cleanup(func() { closeAll(clients) })
	return sc, servers
}

// closeAll closes every client, including those a test removed from its
// ShardedClient (which ShardedClient.Close no longer reaches): a client
// left open redials its dead server for the rest of the test binary.
func closeAll(clients []Backend) {
	for _, cl := range clients {
		cl.Close()
	}
}

func TestShardedSetGetRoundTrip(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := sc.PutVersioned(ctx, key, []byte("v-"+key), 0); err != nil {
			t.Fatalf("PutVersioned(%q): %v", key, err)
		}
	}
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%d", i)
		got, err := sc.Get(ctx, key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if string(got) != "v-"+key {
			t.Errorf("Get(%q) = %q, want %q", key, got, "v-"+key)
		}
	}
	if _, err := sc.Get(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(absent) = %v, want ErrNotFound", err)
	}
}

// Writes land only on the key's placement shards: the data is
// partitioned, not fully replicated.
func TestShardedPlacementIsPartial(t *testing.T) {
	sc, servers := startShards(t, 5, ShardedConfig{Replication: 2})
	ctx := context.Background()
	key := "user:42"
	if _, err := sc.PutVersioned(ctx, key, []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	owners := sc.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("Owners(%q) = %v, want 2", key, owners)
	}
	isOwner := map[string]bool{owners[0]: true, owners[1]: true}
	for addr, srv := range servers {
		_, _, ok := srv.Store().Get(key)
		if ok != isOwner[addr] {
			t.Errorf("shard %s has key = %v, want %v (owners %v)", addr, ok, isOwner[addr], owners)
		}
	}
}

// The paper's redundant read in the live stack: the key's primary is
// stalled, the secondary's response wins, and a fan-out-1 read has to
// wait the stall out.
func TestShardedRedundantGetDodgesSlowPrimary(t *testing.T) {
	// Every server gets a Delay hook before Listen (the Server contract);
	// each stalls only once its own flag flips, so the test can stall the
	// primary race-free after discovering which shard that is.
	const stall = 250 * time.Millisecond
	stalled := make(map[string]*atomic.Bool, 3)
	clients := make([]Backend, 3)
	for i := 0; i < 3; i++ {
		flag := &atomic.Bool{}
		_, addr := startServerDelay(t, func() time.Duration {
			if flag.Load() {
				return stall
			}
			return 0
		})
		stalled[addr] = flag
		clients[i] = NewMuxClient(addr, 5*time.Second)
	}
	sc := NewShardedClient(ShardedConfig{Replication: 2}, clients...)
	defer sc.Close()
	ctx := context.Background()

	key := "hot"
	if _, err := sc.PutVersioned(ctx, key, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	stalled[sc.Owners(key)[0]].Store(true)

	start := time.Now()
	got, err := sc.Get(ctx, key)
	elapsed := time.Since(start)
	if err != nil || string(got) != "payload" {
		t.Fatalf("redundant Get = %q, %v", got, err)
	}
	if elapsed >= stall {
		t.Errorf("redundant Get took %v, want the secondary to win well before the %v stall", elapsed, stall)
	}

	start = time.Now()
	if _, err := sc.Get(ctx, key, core.WithFanoutCap(1)); err != nil {
		t.Fatal(err)
	}
	// The server parks the stall on a timer, which never fires before
	// its delay; a read the secondary answered would take about a
	// millisecond, not the stall.
	if elapsed := time.Since(start); elapsed < stall {
		t.Errorf("fan-out-1 Get took %v, want it to wait out the %v primary stall", elapsed, stall)
	}
}

// A write quorum below the replication factor survives a down shard, and
// a subsequent redundant read still answers from the survivors.
func TestShardedQuorumPutSurvivesDownShard(t *testing.T) {
	sc, servers := startShards(t, 4, ShardedConfig{Replication: 3, WriteQuorum: 2})
	ctx := context.Background()
	key := "survivor"
	servers[sc.Owners(key)[0]].Close() // kill the primary

	if _, err := sc.PutVersioned(ctx, key, []byte("still here"), 0); err != nil {
		t.Fatalf("quorum-2 put with primary down: %v", err)
	}
	got, err := sc.Get(ctx, key)
	if err != nil || string(got) != "still here" {
		t.Fatalf("Get after quorum put = %q, %v", got, err)
	}

	// Two of three placement shards down: the quorum is unreachable and
	// the failure is typed.
	servers[sc.Owners(key)[1]].Close()
	_, err = sc.PutVersioned(ctx, key, []byte("lost"), 0)
	if !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Errorf("put with 2 of 3 placement shards down = %v, want ErrQuorumUnreachable", err)
	}
}

// Removing a shard remaps its keys; a re-put under the new topology
// restores read availability for them.
func TestShardedRemoveShardRemaps(t *testing.T) {
	sc, _ := startShards(t, 4, ShardedConfig{Replication: 2})
	ctx := context.Background()
	key := "mover"
	if _, err := sc.PutVersioned(ctx, key, []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	victim := sc.Owners(key)[0]
	if !sc.RemoveShard(victim) {
		t.Fatalf("RemoveShard(%s) = false", victim)
	}
	if sc.RemoveShard(victim) {
		t.Error("second RemoveShard = true, want false")
	}
	after := sc.Owners(key)
	for _, o := range after {
		if o == victim {
			t.Fatalf("Owners(%q) = %v still includes removed shard %s", key, after, victim)
		}
	}
	// The old secondary is the new primary, so the key stays readable
	// without any migration; the re-put fills the new secondary.
	if got, err := sc.Get(ctx, key); err != nil || string(got) != "v1" {
		t.Fatalf("Get after removal = %q, %v (old secondary should still serve)", got, err)
	}
	if _, err := sc.PutVersioned(ctx, key, []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	if got, err := sc.Get(ctx, key); err != nil || string(got) != "v2" {
		t.Fatalf("Get after re-put = %q, %v", got, err)
	}
}

func TestShardedWriteQuorumClampsToShards(t *testing.T) {
	sc, _ := startShards(t, 1, ShardedConfig{Replication: 3, WriteQuorum: 3})
	ctx := context.Background()
	// One shard exists: the quorum clamps to it rather than failing.
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatalf("put on single-shard ring with quorum 3: %v", err)
	}
	if got, err := sc.Get(ctx, "k"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestShardedRingStats(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := sc.PutVersioned(ctx, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	st := sc.RingStats()
	if len(st.Members) != 3 {
		t.Fatalf("RingStats members = %d, want 3", len(st.Members))
	}
	sum := 0.0
	for _, m := range st.Members {
		sum += m.KeyShare
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("key shares sum to %g, want 1", sum)
	}
}

// The tests below run a ShardedClient with Replication = the number of
// servers, so every key lives on every server: a replicated client over
// one replica set.

// startReplicas launches one live server per Delay hook (nil = none) and
// a ShardedClient placing every key on all of them.
func startReplicas(t *testing.T, strategy core.Strategy, delays ...func() time.Duration) (*ShardedClient, []*Server) {
	t.Helper()
	sc, servers, _ := startAsyncShards(t, len(delays),
		ShardedConfig{Replication: len(delays), ReadStrategy: strategy}, 2*time.Second,
		func(i int) func() time.Duration { return delays[i] })
	return sc, servers
}

func TestShardedFirstWins(t *testing.T) {
	slow := func() time.Duration { return 2 * time.Second }
	sc, servers := startReplicas(t, core.FullReplicate{}, slow, nil)
	ctx := context.Background()
	// Seed the stores directly: a write through the slow server would
	// wait out its delay.
	for _, srv := range servers {
		srv.Store().Set("k", 0, []byte("v"))
	}
	start := time.Now()
	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value.Value) != "v" {
		t.Errorf("value %q", res.Value.Value)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("replicated read waited for the slow server: %v", el)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d", res.Launched)
	}
}

func TestShardedSurvivesDeadReplica(t *testing.T) {
	sc, servers := startReplicas(t, core.FullReplicate{}, nil, nil)
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	servers[0].Close() // kill one replica
	v, err := sc.Get(ctx, "k")
	if err != nil {
		t.Fatalf("replicated read failed with one dead replica: %v", err)
	}
	if string(v) != "v" {
		t.Errorf("value %q", v)
	}
}

func TestShardedAdaptiveHedge(t *testing.T) {
	// A fast and a deliberately slow replica. Cold digests mean the first
	// read fans out fully; once warm, the hedge waits for the primary's
	// observed p95 and the stats snapshot is self-describing.
	slow := func() time.Duration { return 200 * time.Millisecond }
	sc, servers := startReplicas(t,
		core.AdaptiveHedge{Copies: 2, Quantile: 0.95, Selection: core.SelectRanked}, nil, slow)
	ctx := context.Background()
	for _, srv := range servers {
		srv.Store().Set("k", 0, []byte("v"))
	}
	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value.Value) != "v" {
		t.Errorf("value %q", res.Value.Value)
	}
	if res.Launched != 2 {
		t.Errorf("cold adaptive read launched %d copies, want 2 (immediate fallback)", res.Launched)
	}
	start := time.Now()
	for i := 0; i < 30; i++ {
		if _, err := sc.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	// Whichever replica the ring made primary for "k", 30 reads that each
	// waited out the slow one would take 6 s.
	if el := time.Since(start); el > 3*time.Second {
		t.Errorf("30 adaptive reads took %v: the slow replica was not dodged", el)
	}
	s := sc.RingStats()
	if !strings.Contains(s.Strategy, "adaptive-hedge") || !strings.Contains(s.Strategy, "p95") {
		t.Errorf("RingStats.Strategy = %q", s.Strategy)
	}
	warm := false
	for _, m := range s.Members {
		if m.Observations >= 16 && m.P95 > 0 && m.P50 <= m.P95 {
			warm = true
		}
	}
	if !warm {
		t.Errorf("no replica digest warmed past MinSamples: %+v", s.Members)
	}

	// Strategies swap through the snapshot without disturbing reads.
	sc.SetReadStrategy(core.FullReplicate{Selection: core.SelectRandom})
	res, err = sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("full replication launched %d copies", res.Launched)
	}
	if got := sc.RingStats().Strategy; !strings.Contains(got, "full-replicate") {
		t.Errorf("after SetReadStrategy: %q", got)
	}
}

func TestShardedQuorumRead(t *testing.T) {
	// Three replicas; a quorum-2 read succeeds with one dead replica and
	// carries per-replica outcomes, while two dead replicas make the
	// quorum unreachable with named failure detail.
	sc, servers := startReplicas(t, core.FullReplicate{}, nil, nil, nil)
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}

	var outs []core.Outcome[Versioned]
	res, err := sc.GetResult(ctx, "k", core.WithQuorum(2), core.WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value.Value) != "v" {
		t.Errorf("value %q", res.Value.Value)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
			if string(o.Value.Value) != "v" {
				t.Errorf("quorum outcome value %q", o.Value.Value)
			}
		}
	}
	if wins != 2 {
		t.Errorf("quorum read collected %d wins, want 2", wins)
	}

	servers[0].Close() // one dead replica: 2-of-3 still reachable
	if _, err := sc.Get(ctx, "k", core.WithQuorum(2)); err != nil {
		t.Fatalf("quorum read with one dead replica: %v", err)
	}

	servers[1].Close() // two dead: 2-of-3 unreachable
	_, err = sc.Get(ctx, "k", core.WithQuorum(2))
	if !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Fatalf("got %v, want ErrQuorumUnreachable", err)
	}
	var re core.ReplicaError
	if !errors.As(err, &re) || re.Name == "" {
		t.Errorf("quorum failure lacks named replica detail: %v", err)
	}
}

func TestShardedPerReadLabelAndCap(t *testing.T) {
	var seen []core.Observation // labelled calls; Observe runs on the calling goroutine before the call returns
	sc, _, _ := startAsyncShards(t, 2, ShardedConfig{
		Replication:  2,
		ReadStrategy: core.FullReplicate{},
		Observer: core.ObserverFunc(func(o core.Observation) {
			if o.Label != "" {
				seen = append(seen, o)
			}
		}),
	}, 2*time.Second, nil)
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	res, err := sc.GetResult(ctx, "k", core.WithFanoutCap(1), core.WithLabel("prefetch"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("capped read launched %d copies, want 1", res.Launched)
	}
	if len(seen) != 1 || seen[0].Label != "prefetch" || seen[0].Launched != 1 {
		t.Errorf("observer saw %+v, want one prefetch-labelled single-copy read", seen)
	}
}
