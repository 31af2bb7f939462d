package ring_test

import (
	"fmt"
	"sort"
	"testing"

	"redundancy/internal/ring"
)

// A Placement snapshot must agree exactly with the live ring it was
// taken from, and must keep agreeing after the ring changes — that
// immutability is what makes before/after remap diffs possible.
func TestPlacementSnapshotIsImmutable(t *testing.T) {
	r := ring.New[string, string](nil, ring.WithReplication(2))
	for _, n := range []string{"a", "b", "c"} {
		r.Add(n, named(n))
	}
	p := r.Placement()
	if p.Len() != 3 || p.Replication() != 2 {
		t.Fatalf("Len=%d Replication=%d", p.Len(), p.Replication())
	}
	names := append([]string(nil), p.Names()...)
	sort.Strings(names)
	if fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("Names = %v", names)
	}

	before := make(map[string][]string)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("pk-%d", i)
		owners := p.Owners(key)
		if got := r.Owners(key); fmt.Sprint(owners) != fmt.Sprint(got) {
			t.Fatalf("Placement.Owners(%q) = %v, ring says %v", key, owners, got)
		}
		before[key] = owners
	}

	// Mutating the ring must not disturb the snapshot.
	r.Add("d", named("d"))
	for key, owners := range before {
		if got := p.Owners(key); fmt.Sprint(got) != fmt.Sprint(owners) {
			t.Fatalf("snapshot Owners(%q) changed from %v to %v after Add", key, owners, got)
		}
	}
}

func TestPlacementOwnersInto(t *testing.T) {
	r := ring.New[string, string](nil, ring.WithReplication(3))
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Add(n, named(n))
	}
	p := r.Placement()
	dst := make([]string, 3)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("oi-%d", i)
		n := p.OwnersInto(key, dst)
		if fmt.Sprint(dst[:n]) != fmt.Sprint(p.Owners(key)) {
			t.Fatalf("OwnersInto(%q) = %v, Owners = %v", key, dst[:n], p.Owners(key))
		}
	}
	// A short destination truncates rather than overflows.
	short := make([]string, 1)
	if n := p.OwnersInto("oi-0", short); n != 1 || short[0] != p.Owners("oi-0")[0] {
		t.Fatalf("OwnersInto with len-1 dst = %d, %v", n, short)
	}
}

// SameOwners is the remap diff: identical placements agree on every
// key; after adding a member, exactly the keys whose owner set moved
// must report false.
func TestPlacementSameOwnersDiff(t *testing.T) {
	r := ring.New[string, string](nil, ring.WithReplication(2))
	for _, n := range []string{"a", "b", "c", "d"} {
		r.Add(n, named(n))
	}
	prev := r.Placement()
	if !prev.SameOwners(prev, "any-key") {
		t.Fatal("placement disagrees with itself")
	}
	r.Add("e", named("e"))
	cur := r.Placement()

	moved, stayed := 0, 0
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("diff-%d", i)
		same := prev.SameOwners(cur, key)
		want := fmt.Sprint(prev.Owners(key)) == fmt.Sprint(cur.Owners(key))
		if same != want {
			t.Fatalf("SameOwners(%q) = %v; prev %v cur %v", key, same, prev.Owners(key), cur.Owners(key))
		}
		if same {
			stayed++
		} else {
			moved++
		}
	}
	// One member joining a 4-member ring must remap some keys and leave
	// most alone.
	if moved == 0 || stayed == 0 {
		t.Fatalf("degenerate diff: moved=%d stayed=%d", moved, stayed)
	}
	if moved > stayed {
		t.Fatalf("adding 1 of 5 members moved %d/%d keys: remap not minimal", moved, moved+stayed)
	}
}

// With 128 vnodes and 4 members no member is primary for more than ~2x
// its fair share of keys. (The regression test for FNV's low-bit
// clustering: without the murmur finalizer one member owned 65% of the
// keyspace.)
func TestPlacementBalance(t *testing.T) {
	names := []string{"s0", "s1", "s2", "s3"}
	p := ring.NewPlacement(names, 128, 1)
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.Owners(fmt.Sprintf("key-%d", i))[0]]++
	}
	fair := n / len(names)
	for _, name := range names {
		if counts[name] < fair/2 || counts[name] > fair*2 {
			t.Errorf("%s is primary for %d keys, fair share %d", name, counts[name], fair)
		}
	}
}

// Consistent hashing's defining property: adding a member moves only a
// ~1/n fraction of primaries, and every one that moves moves to it.
func TestPlacementStableUnderAddition(t *testing.T) {
	before := ring.NewPlacement([]string{"a", "b", "c"}, 128, 1)
	after := ring.NewPlacement([]string{"a", "b", "c", "d"}, 128, 1)
	moved := 0
	const n = 10000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := before.Owners(key)[0], after.Owners(key)[0]
		if was == is {
			continue
		}
		moved++
		if is != "d" {
			t.Fatalf("key %q moved from %s to %s, not to the new member", key, was, is)
		}
	}
	// Expect ~25% to move to the new member; fail above 40%.
	if moved > n*4/10 {
		t.Errorf("%d/%d keys moved on member addition, want ~25%%", moved, n)
	}
}

// Two placements built from the same names agree on every key.
func TestPlacementDeterministic(t *testing.T) {
	names := []string{"x", "y", "z"}
	a, b := ring.NewPlacement(names, 32, 2), ring.NewPlacement(names, 32, 2)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%d", i)
		if !a.SameOwners(b, key) {
			t.Fatalf("identical placements disagree on %q: %v vs %v", key, a.Owners(key), b.Owners(key))
		}
	}
}

// A placement keeps its names in the order given, in its own copy.
func TestPlacementNamesOrder(t *testing.T) {
	names := []string{"b", "a", "c"}
	p := ring.NewPlacement(names, 8, 1)
	names[0] = "mutated"
	if got := fmt.Sprint(p.Names()); got != "[b a c]" {
		t.Errorf("Names() = %s, want the order given", got)
	}
}

// A key's owners are as many distinct members as the replication asks.
func TestPlacementOwnersDistinctAndOrdered(t *testing.T) {
	p := ring.NewPlacement([]string{"a", "b", "c", "d"}, 64, 4)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		all := p.Owners(key)
		if len(all) != 4 {
			t.Fatalf("Owners(%q) at replication 4 = %v", key, all)
		}
		seen := map[string]bool{}
		for _, n := range all {
			if seen[n] {
				t.Fatalf("duplicate member %q in %v", n, all)
			}
			seen[n] = true
		}
	}
}

// Owners are in ring-walk order: the secondary is the next member after
// the primary, and a larger replication extends the list without
// reordering it.
func TestPlacementSecondaryIsNextOwner(t *testing.T) {
	names := []string{"a", "b", "c"}
	p1, p2, p3 := ring.NewPlacement(names, 64, 1), ring.NewPlacement(names, 64, 2), ring.NewPlacement(names, 64, 3)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		all := p3.Owners(key)
		if one := p1.Owners(key); fmt.Sprint(one) != fmt.Sprint(all[:1]) {
			t.Fatalf("Owners(%q) = %v at replication 1, %v at 3: primary moved", key, one, all)
		}
		if two := p2.Owners(key); fmt.Sprint(two) != fmt.Sprint(all[:2]) {
			t.Fatalf("Owners(%q) = %v at replication 2, %v at 3: not a prefix", key, two, all)
		}
	}
}

// Replication clamps to the members there are.
func TestPlacementClampsReplication(t *testing.T) {
	if got := ring.NewPlacement([]string{"a", "b"}, 8, 5).Owners("k"); len(got) != 2 {
		t.Errorf("replication 5 over 2 members: Owners = %v, want both", got)
	}
}

// An empty placement owns nothing.
func TestPlacementEmpty(t *testing.T) {
	p := ring.NewPlacement(nil, 8, 2)
	if got := p.Owners("k"); got != nil {
		t.Errorf("empty placement: Owners = %v, want nil", got)
	}
	if p.Len() != 0 {
		t.Errorf("empty placement: Len = %d", p.Len())
	}
}

// Vnodes and replication below 1 mean 1.
func TestPlacementClampsVNodes(t *testing.T) {
	p := ring.NewPlacement([]string{"a", "b"}, 0, 0)
	if p.Replication() != 1 || len(p.Owners("k")) != 1 {
		t.Errorf("replication 0: Replication() = %d, Owners = %v; want 1 owner", p.Replication(), p.Owners("k"))
	}
	if got, want := fmt.Sprint(p.Owners("k")), fmt.Sprint(ring.NewPlacement([]string{"a", "b"}, 1, 1).Owners("k")); got != want {
		t.Errorf("vnodes 0 places %s, vnodes 1 places %s", got, want)
	}
}
