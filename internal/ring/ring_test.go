package ring_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
	"redundancy/internal/ring"
)

func instant(v int) core.ArgReplica[string, int] {
	return func(ctx context.Context, _ string) (int, error) { return v, nil }
}

func named(name string) core.ArgReplica[string, string] {
	return func(ctx context.Context, _ string) (string, error) { return name, nil }
}

// keyWithPrimary returns a key whose primary is the given member.
func keyWithPrimary[K ~string, T any](t *testing.T, r *ring.Ring[K, T], member string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("key-%d", i)
		if owners := r.Owners(key); len(owners) > 0 && owners[0] == member {
			return key
		}
	}
	t.Fatal("no key with primary " + member)
	return ""
}

// Placement is a golden: the owners of 300 keys over s0…s7 at 64 vnodes,
// replication 3, as the live ring and the cluster simulator (through
// NewPlacement) both place them. The expected digest was captured before
// the simulator's own consistent-hash package was folded into this one,
// when the two implementations were checked against each other key by
// key; a change here moves figures 5–11 and every key's home.
func TestPlacementMatchesSimulator(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	r := ring.New[string, int](nil, ring.WithVirtualNodes(64), ring.WithReplication(3))
	for i, n := range names {
		r.Add(n, instant(i))
	}
	sim := ring.NewPlacement(names, 64, 3)
	var live, simulated strings.Builder
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("file-%d", i)
		fmt.Fprintln(&live, strings.Join(r.Owners(key), ","))
		fmt.Fprintln(&simulated, strings.Join(sim.Owners(key), ","))
	}
	if live.String() != simulated.String() {
		t.Fatal("the live ring and NewPlacement place the same names differently")
	}
	lines := strings.Split(live.String(), "\n")
	for i, want := range map[int]string{0: "s1,s3,s0", 1: "s2,s5,s1", 2: "s4,s1,s6", 3: "s3,s0,s6", 4: "s5,s3,s0", 299: "s4,s2,s1"} {
		if lines[i] != want {
			t.Errorf("owners of file-%d = %s, want %s", i, lines[i], want)
		}
	}
	const want = "b876fa9fd580e61414733ba3170c7cfccb5f052bf9ed2904a1773cf84c082264"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(live.String()))); got != want {
		t.Errorf("owners digest = %s, want %s", got, want)
	}
}

func TestEmptyRing(t *testing.T) {
	r := ring.New[string, int](nil)
	if _, err := r.Do(context.Background(), "k"); !errors.Is(err, core.ErrNoReplicas) {
		t.Errorf("Do on empty ring = %v, want ErrNoReplicas", err)
	}
	if owners := r.Owners("k"); owners != nil {
		t.Errorf("Owners on empty ring = %v, want nil", owners)
	}
}

// A single-member ring is its own secondary: placement clamps to the one
// member, a fan-out-2 strategy launches one copy, and a quorum of 2 is
// typed unreachable.
func TestSingleMemberClampsToOne(t *testing.T) {
	r := ring.New[string, int](core.Fixed{Copies: 2})
	r.Add("only", instant(7))
	res, err := r.Do(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 7 || res.Launched != 1 {
		t.Errorf("single-member Do = value %d launched %d, want 7, 1", res.Value, res.Launched)
	}
	if _, err := r.Do(context.Background(), "k", core.WithQuorum(2)); !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Errorf("quorum 2 on single-member ring = %v, want ErrQuorumUnreachable", err)
	}
}

// Replication bounds the fan-out: an "all replicas" strategy races the
// key's placement subset, not the whole ring.
func TestReplicationBoundsFanout(t *testing.T) {
	r := ring.New[string, int](core.FullReplicate{}, ring.WithReplication(2))
	for i := 0; i < 6; i++ {
		r.Add(fmt.Sprintf("s%d", i), instant(i))
	}
	res, err := r.Do(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("FullReplicate over 6 members launched %d, want replication 2", res.Launched)
	}
}

// A placement wider than Do's stack scratch still routes every owner,
// and a snapshot of it diffs against itself; options below 1 mean 1,
// and the observer sees each call.
func TestRingWidePlacementAndClampedOptions(t *testing.T) {
	var calls atomic.Int64
	obs := core.ObserverFunc(func(core.Observation) { calls.Add(1) })
	r := ring.New[string, int](core.FullReplicate{}, ring.WithReplication(6), ring.WithObserver(obs))
	for i := 0; i < 6; i++ {
		r.Add(fmt.Sprintf("s%d", i), instant(i))
	}
	res, err := r.Do(context.Background(), "k")
	if err != nil || res.Launched != 6 {
		t.Fatalf("Do over 6 owners = launched %d, err %v; want 6, nil", res.Launched, err)
	}
	if r.Replication() != 6 || r.Strategy() != (core.FullReplicate{}) || calls.Load() != 1 {
		t.Errorf("Replication %d, Strategy %v, observed %d calls; want 6, FullReplicate, 1",
			r.Replication(), r.Strategy(), calls.Load())
	}
	if p := r.Placement(); !p.SameOwners(p, "k") {
		t.Error("a 6-owner placement disagrees with itself")
	}

	one := ring.New[string, int](nil, ring.WithReplication(0), ring.WithVirtualNodes(0))
	one.Add("only", instant(1))
	if st := one.Stats(); one.Replication() != 1 || len(st.Members) != 1 || st.Members[0].KeyShare != 1 {
		t.Errorf("replication 0, vnodes 0: Replication %d, Stats %+v; want 1, one member owning the ring",
			one.Replication(), st)
	}
}

// The paper's redundant read: primary + secondary race, first response
// wins. With the primary stalled, the secondary's answer comes back.
func TestSecondaryWinsOverSlowPrimary(t *testing.T) {
	stall := coretest.NewGate()
	defer stall.Release()
	r := ring.New[string, string](core.Fixed{Copies: 2})
	r.Add("slow", func(ctx context.Context, _ string) (string, error) {
		return coretest.Blocked("slow", stall)(ctx)
	})
	r.Add("fast", named("fast"))

	key := keyWithPrimary(t, r, "slow")
	res, err := r.Do(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" || res.Index != 1 {
		t.Errorf("Do with stalled primary = %q (index %d), want secondary \"fast\" (index 1)", res.Value, res.Index)
	}
}

// Removing a member remaps its keys to their successors — the remaining
// walk order with the member deleted — and adds route back.
func TestRemoveRemapsToSuccessors(t *testing.T) {
	r := ring.New[string, int](nil, ring.WithReplication(3))
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("s%d", i), instant(i))
	}
	keys := make([]string, 50)
	before := make([][]string, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		before[i] = r.Owners(keys[i])
	}
	if !r.Remove("s1") {
		t.Fatal("Remove(s1) = false")
	}
	for i, key := range keys {
		want := make([]string, 0, 3)
		for _, n := range before[i] {
			if n != "s1" {
				want = append(want, n)
			}
		}
		got := r.Owners(key)
		// The surviving prefix must be preserved in order; a key that had
		// s1 in its placement gains exactly one new successor at the end.
		if len(got) != 3 {
			t.Fatalf("Owners(%q) after removal = %v, want 3 members", key, got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("Owners(%q) after removing s1 = %v, want prefix %v preserved", key, got, want)
			}
		}
	}
	if r.Remove("s1") {
		t.Error("second Remove(s1) = true, want false")
	}
	if !r.Add("s1", instant(1)) {
		t.Fatal("re-Add(s1) = false")
	}
	for i, key := range keys {
		got := r.Owners(key)
		for j := range before[i] {
			if got[j] != before[i][j] {
				t.Fatalf("Owners(%q) after re-adding s1 = %v, want original %v", key, got, before[i])
			}
		}
	}
	if r.Add("s1", instant(1)) {
		t.Error("duplicate Add(s1) = true, want false")
	}
}

// A member removed while a call is in flight keeps serving that call:
// the routed handles outlive the topology change, exactly like the
// group's copy-on-write snapshot.
func TestRemoveMidCall(t *testing.T) {
	started := make(chan struct{})
	release := coretest.NewGate()
	var once sync.Once
	r := ring.New[string, int](core.Fixed{Copies: 1})
	r.Add("a", func(ctx context.Context, _ string) (int, error) {
		once.Do(func() { close(started) })
		return coretest.Blocked(1, release)(ctx)
	})
	r.Add("b", instant(2))

	key := keyWithPrimary(t, r, "a")
	type result struct {
		res core.Result[int]
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := r.Do(context.Background(), key)
		done <- result{res, err}
	}()
	<-started
	if !r.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	// The new table no longer routes to a...
	if owners := r.Owners(key); owners[0] != "b" {
		t.Fatalf("Owners(%q) after removal = %v, want [b]", key, owners)
	}
	// ...but the in-flight call completes against it.
	release.Release()
	got := <-done
	if got.err != nil || got.res.Value != 1 {
		t.Errorf("in-flight Do across removal = %d, %v; want 1, nil", got.res.Value, got.err)
	}
}

// Quorum reads take R-of-N within the key's placement and the failure is
// typed.
func TestQuorumWithinPlacement(t *testing.T) {
	boom := errors.New("boom")
	r := ring.New[string, int](core.FullReplicate{}, ring.WithReplication(3))
	r.Add("ok1", instant(1))
	r.Add("ok2", instant(2))
	r.Add("bad", func(ctx context.Context, _ string) (int, error) { return 0, boom })

	if _, err := r.Do(context.Background(), "k", core.WithQuorum(2)); err != nil {
		t.Fatalf("quorum 2 with one failing member: %v", err)
	}
	_, err := r.Do(context.Background(), "k", core.WithQuorum(3))
	if !errors.Is(err, core.ErrQuorumUnreachable) || !errors.Is(err, boom) {
		t.Errorf("quorum 3 with a failing member = %v, want ErrQuorumUnreachable wrapping the cause", err)
	}
}

// A call routes by its key: Do lands on the primary Owners
// reports, for a named key type as for a plain string.
func TestKeyedRoutingAgrees(t *testing.T) {
	type userID string
	r := ring.New[userID, string](core.Fixed{Copies: 1})
	for i := 0; i < 5; i++ {
		n := fmt.Sprintf("s%d", i)
		r.Add(n, func(ctx context.Context, _ userID) (string, error) { return n, nil })
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		want := r.Owners(key)[0]
		res, err := r.Do(context.Background(), userID(key))
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != want {
			t.Errorf("Do(%q) served by %s, Owners says %s", key, res.Value, want)
		}
	}
}

func TestStatsKeyShares(t *testing.T) {
	r := ring.New[string, int](core.Fixed{Copies: 2}, ring.WithReplication(2))
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("s%d", i), instant(i))
	}
	for i := 0; i < 32; i++ {
		if _, err := r.Do(context.Background(), fmt.Sprintf("key-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Replication != 2 || len(st.Members) != 4 {
		t.Fatalf("Stats = replication %d, %d members; want 2, 4", st.Replication, len(st.Members))
	}
	sum, observations := 0.0, int64(0)
	for _, m := range st.Members {
		if m.KeyShare <= 0 {
			t.Errorf("member %s key share %g, want > 0", m.Name, m.KeyShare)
		}
		sum += m.KeyShare
		observations += m.Observations
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("key shares sum to %g, want 1", sum)
	}
	// Every call records at least its winner; losers that complete
	// before cancellation record too.
	if observations < 32 {
		t.Errorf("total observations %d, want >= 32 (one winner per call)", observations)
	}
}

// Churn race: concurrent calls, topology changes, and strategy swaps.
// Run with -race -count=5; the fixed member s0 guarantees every call has
// a route.
func TestRingChurnRace(t *testing.T) {
	r := ring.New[string, int](core.Fixed{Copies: 2}, ring.WithReplication(2), ring.WithVirtualNodes(16))
	r.Add("s0", instant(0))

	const (
		callers = 4
		calls   = 200
		churns  = 100
	)
	var wg sync.WaitGroup
	var ok atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				res, err := r.Do(context.Background(), fmt.Sprintf("key-%d-%d", c, i))
				if err != nil {
					t.Errorf("Do during churn: %v", err)
					return
				}
				_ = res
				ok.Add(1)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < churns; i++ {
			name := fmt.Sprintf("s%d", 1+i%3)
			r.Add(name, instant(i))
			switch i % 3 {
			case 0:
				r.SetStrategy(core.AdaptiveHedge{Copies: 2})
			case 1:
				r.SetStrategy(core.Fixed{Copies: 2})
			case 2:
				r.SetStrategy(core.FullReplicate{})
			}
			r.Remove(name)
		}
	}()
	wg.Wait()
	if got := ok.Load(); got != callers*calls {
		t.Errorf("%d calls succeeded, want %d", got, callers*calls)
	}
	if r.Len() != 1 || r.Names()[0] != "s0" {
		t.Errorf("after churn: members %v, want [s0]", r.Names())
	}
}

// TestRingDoAllocs: a routed two-copy call over function replicas costs
// what the unrouted one does — the engine's cancellation channel and
// derived context, exactly 2 allocations. Hashing, the route-table walk
// and the placement scratch add none.
func TestRingDoAllocs(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	r := ring.New[string, int](core.Fixed{Copies: 2})
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("s%d", i), instant(i))
	}
	ctx := context.Background()
	do := func() {
		if res, err := r.Do(ctx, "user:12345"); err != nil || res.Launched != 2 {
			t.Fatalf("Do = (%+v, %v), want 2 copies launched", res, err)
		}
		// AllocsPerRun pins GOMAXPROCS to 1: let the loser deliver and
		// recycle its frame before the next call checks one out.
		runtime.Gosched()
	}
	for i := 0; i < 100; i++ {
		do()
	}
	if avg := testing.AllocsPerRun(500, do); avg != 2 {
		t.Errorf("Ring.Do at k=2 allocates %.2f/op, want exactly 2", avg)
	}
}
