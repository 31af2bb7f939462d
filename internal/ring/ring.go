// Package ring implements sharded keyed routing over a consistent-hash
// ring: the production form of the placement the paper's disk-backed
// storage service uses (§2.2, "files are partitioned across servers via
// consistent hashing, and two copies are stored of every file: if the
// primary is stored on server n, the secondary goes to server n+1").
//
// Where core.KeyedGroup treats every replica as holding the full
// dataset, a Ring partitions the keyspace across many named backends:
// each key maps to a primary plus Replication-1 distinct successors on
// the ring, and every call runs the redundancy engine over exactly that
// placement subset — primary launched first, successors as hedges,
// quorum peers, or full-replication races, per the installed strategy.
// The ring deliberately owns only the routing table; everything else is
// the existing core machinery, reached through core.KeyedGroup.DoPicked:
//
//   - strategies (Fixed, AdaptiveHedge, FullReplicate, LoadAware) decide
//     fan-out and launch schedule within the placement subset,
//   - per-call options (WithQuorum, WithLabel, WithStrategyOverride,
//     WithFanoutCap, WithCollectOutcomes) compose per read or write,
//   - losing copies are cancelled and counted, a LoadAware strategy's
//     governor meters the added load, and
//   - per-member latency digests feed adaptive hedging and Stats, keyed
//     per ring member.
//
// Topology changes are atomic: Add and Remove publish a new immutable
// route table through the same copy-on-write pattern as the group's
// membership snapshot, so a concurrent call sees either the old placement
// or the new one, never a mix. Keys owned by a removed member remap to
// their successors; calls already in flight finish against the members
// they were routed to (handles outlive removal, exactly like the group's
// snapshot grace). The route table is a Table: a Placement plus one
// entry per member, and one owner walk serves both — a call routes to
// the entries, a Placement answers with the names. A Ring's entries are
// its group's handles; a client that runs more than one group over the
// same members (memkv's reads and writes) keeps its own Table whose
// entry holds every handle a member has. The cluster simulator places
// its files with NewPlacement, built by the same point builder, so the
// live ring and the simulator place identically.
//
// All methods are safe for concurrent use. The per-call hot path —
// hash, binary search, successor walk, DoPicked — takes no locks and
// stays within the same allocation budget as an unrouted Group.Do.
package ring

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"redundancy/internal/core"
)

// Defaults for New.
const (
	// DefaultReplication is the number of distinct members each key is
	// placed on: the paper's primary + next-server secondary.
	DefaultReplication = 2
	// DefaultVirtualNodes is the number of ring points per member; more
	// points smooth the per-member key share at the cost of memory.
	DefaultVirtualNodes = 128
)

// Ring partitions a keyspace across named backends and routes every
// call through the core redundancy engine over the key's placement
// subset. The call argument is the routing key itself. Build one with
// New; see the package comment for semantics.
type Ring[K ~string, T any] struct {
	routes Table[core.Handle[K, T]] // each member's entry is its handle
	group  *core.KeyedGroup[K, T]
	mu     sync.Mutex // serializes topology writers; readers never take it
}

// Table is a copy-on-write route table: named members, each with an
// entry E, placed on the hash ring. Every lookup loads one immutable
// snapshot without a lock; Add and Remove publish a new one and must be
// serialized by the caller. Build one with NewTable. A Ring keeps one
// over its group's handles; a client that runs more than one group over
// the same members keeps its own.
type Table[E comparable] struct {
	vnodes int
	cur    atomic.Pointer[routes[E]]
}

// routes is one immutable routing snapshot: the Placement that names the
// members (registration order) and places keys on them, and each
// member's entry under the same index.
type routes[E any] struct {
	Placement
	entries []E
}

type point struct {
	hash  uint64
	owner int32 // member index: into Placement.names and routes.entries
}

// config collects Option state.
type config struct {
	replication int
	vnodes      int
	observer    core.Observer
}

// Option configures a Ring at construction.
type Option func(*config)

// WithReplication sets how many distinct members each key is placed on
// (primary + r-1 successors; default DefaultReplication). Values below 1
// mean 1. The installed strategy's fan-out is clamped to the placement,
// so r bounds the copies any one call can launch.
func WithReplication(r int) Option {
	return func(c *config) { c.replication = r }
}

// WithVirtualNodes sets the virtual points per member (default
// DefaultVirtualNodes; values below 1 mean 1).
func WithVirtualNodes(v int) Option {
	return func(c *config) { c.vnodes = v }
}

// WithObserver attaches an Observer for per-operation metrics.
func WithObserver(o core.Observer) Option {
	return func(c *config) { c.observer = o }
}

// New creates a Ring whose call argument is the routing key itself
// (string-typed keys: a KV key, a filename, a user ID). strategy decides
// the redundancy within each key's placement — Fixed{Copies: 2} is the
// paper's primary+secondary race; nil means single-copy routing.
func New[K ~string, T any](strategy core.Strategy, opts ...Option) *Ring[K, T] {
	cfg := config{replication: DefaultReplication, vnodes: DefaultVirtualNodes}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	r := &Ring[K, T]{group: core.NewStrategyKeyedGroup[K, T](strategy, core.WithObserver(cfg.observer))}
	r.routes.init(cfg.vnodes, cfg.replication)
	return r
}

// NewTable creates an empty route table placing each key on replication
// members, with vnodes points per member (values below 1 mean 1), as
// NewPlacement places.
func NewTable[E comparable](vnodes, replication int) *Table[E] {
	t := &Table[E]{}
	t.init(vnodes, replication)
	return t
}

func (t *Table[E]) init(vnodes, replication int) {
	t.vnodes = max(vnodes, 1)
	t.cur.Store(&routes[E]{Placement: Placement{replication: max(replication, 1)}})
}

// Add registers a backend under name and rebuilds the route table:
// every key whose placement now includes name routes to it from the next
// call on. Adding a name that already exists is a no-op (members are
// unique by name). Reports whether the member was added.
func (r *Ring[K, T]) Add(name string, fn core.ArgReplica[K, T]) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.routes.Member(name); ok {
		return false
	}
	r.routes.Add(name, r.group.Add(name, fn))
	return true
}

// Remove drops the backend registered under name and reports whether it
// was present. Its keys remap to their successors atomically with the
// table swap; calls already routed keep their handles and may still
// complete against it.
func (r *Ring[K, T]) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.routes.Remove(name) {
		return false
	}
	r.group.Remove(name)
	return true
}

// Add publishes a table with member name, carrying e, appended. name
// must not be a member already (see Member).
func (t *Table[E]) Add(name string, e E) {
	rt := t.cur.Load()
	t.publish(rt, append(slices.Clip(rt.names), name), append(slices.Clip(rt.entries), e))
}

// Remove publishes a table without member name, reporting whether it
// was a member.
func (t *Table[E]) Remove(name string) bool {
	rt := t.cur.Load()
	i := slices.Index(rt.names, name)
	if i >= 0 {
		t.publish(rt, slices.Delete(slices.Clone(rt.names), i, i+1), slices.Delete(slices.Clone(rt.entries), i, i+1))
	}
	return i >= 0
}

// publish compiles a member list, names and their entries by index, into
// the snapshot that follows prev and swaps it in.
func (t *Table[E]) publish(prev *routes[E], names []string, entries []E) {
	t.cur.Store(&routes[E]{
		Placement: Placement{points: buildPoints(names, t.vnodes), names: names, replication: prev.replication},
		entries:   entries,
	})
}

// Member returns the entry of the member named name, if there is one.
func (t *Table[E]) Member(name string) (E, bool) {
	rt := t.cur.Load()
	if i := slices.Index(rt.names, name); i >= 0 {
		return rt.entries[i], true
	}
	var zero E
	return zero, false
}

// Entries returns every member's entry in registration order.
func (t *Table[E]) Entries() []E { return slices.Clone(t.cur.Load().entries) }

// Route resolves key's placement from the current snapshot, primary
// first, into buf — or into a new slice when buf is too short. A table
// smaller than the replication factor clamps the placement to the
// members that exist (a single-member table is its own secondary, so a
// ring's fan-out degrades to 1), and an empty one places key nowhere.
func (t *Table[E]) Route(key string, buf []E) []E {
	rt := t.cur.Load()
	if n := min(rt.replication, len(rt.names)); n > len(buf) {
		buf = make([]E, n)
	}
	return buf[:walkOwners(&rt.Placement, key, buf, func(i int32) E { return rt.entries[i] })]
}

// buildPoints places vnodes points on the ring for each of names, the
// points of names[i] owned by index i, sorted by hash. Ties (vanishingly
// rare 64-bit collisions) resolve by index, deterministically.
func buildPoints(names []string, vnodes int) []point {
	points := make([]point, 0, len(names)*vnodes)
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hash: vnodeHash(name, v), owner: int32(i)})
		}
	}
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].owner < points[b].owner
	})
	return points
}

// keyHash returns the position of a key (or virtual-node label) on the
// ring: FNV-1a over the bytes, finalized by fmix64. It is an inline loop
// rather than hash/fnv so the per-call routing hot path allocates
// nothing.
func keyHash(s string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return fmix64(h)
}

// vnodeHash returns the ring position of node's v-th virtual point.
func vnodeHash(node string, v int) uint64 {
	return keyHash(fmt.Sprintf("%s#%d", node, v))
}

// fmix64 is the MurmurHash3 64-bit finalizer. FNV-1a alone leaves nearly
// identical hashes for strings that differ only in a trailing counter
// (vnode suffixes), which would collapse each node's virtual points into
// one arc of the ring; the finalizer restores full avalanche.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// walkOwners is the one owner walk, behind Table.Route and
// Placement.OwnersInto: it fills dst with member(i) for the first
// distinct member indexes i on p's ring clockwise from key's hash —
// dst[0] the primary, dst[1] the secondary, and so on — and returns how
// many it wrote: min(len(dst), replication, members). member must map
// distinct indexes to distinct values.
func walkOwners[E comparable](p *Placement, key string, dst []E, member func(int32) E) int {
	want := min(len(dst), p.replication, len(p.names))
	pts := p.points
	hash := keyHash(key)
	start := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= hash })
	n := 0
walk:
	for j := 0; j < len(pts) && n < want; j++ {
		e := member(pts[(start+j)%len(pts)].owner)
		for i := 0; i < n; i++ {
			if dst[i] == e {
				continue walk
			}
		}
		dst[n] = e
		n++
	}
	return n
}

// Do performs one redundant operation for arg's key: the key's primary
// and successors are resolved from the current route table and the call
// runs through the core engine over that subset (see
// core.KeyedGroup.DoPicked). Per-call options compose exactly as on a
// Group — WithQuorum for R-of-N within the placement, WithLabel,
// WithStrategyOverride, WithFanoutCap, WithCollectOutcomes. An empty
// ring fails with core.ErrNoReplicas.
func (r *Ring[K, T]) Do(ctx context.Context, arg K, opts ...core.CallOption) (core.Result[T], error) {
	// The placement scratch stays on the stack for typical replication
	// factors; DoPicked copies it into the call frame before launching.
	var buf [4]core.Handle[K, T]
	return r.group.DoPicked(ctx, arg, r.routes.Route(string(arg), buf[:]), opts...)
}

// Owners returns the names of the members key is placed on, primary
// first — the routing decision Do would make, for introspection and
// tests. It returns at most Replication names (fewer on a small ring),
// and nil on an empty ring.
func (r *Ring[K, T]) Owners(key string) []string { return r.routes.Placement().Owners(key) }

// Replication returns the configured placement copies per key.
func (r *Ring[K, T]) Replication() int { return r.routes.Placement().Replication() }

// Len returns the number of members.
func (r *Ring[K, T]) Len() int { return r.routes.Placement().Len() }

// Names returns the member names in registration order.
func (r *Ring[K, T]) Names() []string { return slices.Clone(r.routes.Placement().names) }

// SetStrategy replaces the ring's replication strategy atomically (see
// core.KeyedGroup.SetStrategy). The strategy applies within each key's
// placement subset.
func (r *Ring[K, T]) SetStrategy(s core.Strategy) { r.group.SetStrategy(s) }

// Strategy returns the current replication strategy.
func (r *Ring[K, T]) Strategy() core.Strategy { return r.group.Strategy() }

// MemberStats describes one ring member in a Stats snapshot: the
// member's share of the keyspace plus the same per-replica latency
// statistics a Group reports.
type MemberStats struct {
	core.ReplicaStats
	// KeyShare is the fraction of the hash space this member owns as
	// primary — its share of single-copy load. Shares sum to 1.
	KeyShare float64
}

// Stats is a point-in-time view of a Ring: strategy, replication, and
// per-member key share and load.
type Stats struct {
	// Strategy describes the active strategy (its String()).
	Strategy string
	// Replication is the placement copies per key.
	Replication int
	// Members holds per-member statistics in registration order.
	Members []MemberStats
}

// Stats returns a consistent snapshot of the ring's strategy and
// per-member key share and latency statistics. Key shares come from one
// route-table snapshot and latency digests from the group's snapshot;
// each is internally consistent.
func (r *Ring[K, T]) Stats() Stats { return r.routes.Placement().Stats(r.group.Stats()) }

// Stats joins a group's snapshot to this placement: each member's key
// share, with the latency statistics gs holds under the member's name —
// a Ring's Stats over its own group, or a Table's placement over
// whichever group routes through it.
func (p Placement) Stats(gs core.GroupStats) Stats {
	byName := make(map[string]core.ReplicaStats, len(gs.Replicas))
	for _, rs := range gs.Replicas {
		byName[rs.Name] = rs
	}
	s := Stats{
		Strategy:    gs.Strategy,
		Replication: p.replication,
		Members:     make([]MemberStats, len(p.names)),
	}
	shares := p.keyShares()
	for i, name := range p.names {
		s.Members[i] = MemberStats{
			ReplicaStats: byName[name],
			KeyShare:     shares[i],
		}
	}
	return s
}

// Placement is an immutable, non-generic snapshot of a ring's routing
// decision: it answers "which members own key k" under one frozen
// topology, detached from the ring's element types and from later
// Add/Remove calls. An anti-entropy migrator captures one Placement
// before a topology change and one after, then enumerates keys and
// re-homes exactly those whose owner set differs — the remap diff.
type Placement struct {
	points      []point // sorted by hash; never mutated
	names       []string
	replication int
}

// Placement captures the ring's current routing as an immutable
// snapshot: the current route table's own Placement, which routes every
// call until the next Add or Remove (tables are copy-on-write, so it
// stays valid forever). It allocates nothing and is safe for concurrent
// use.
func (r *Ring[K, T]) Placement() Placement { return r.routes.Placement() }

// Placement is the table's current snapshot, as Ring.Placement.
func (t *Table[E]) Placement() Placement { return t.cur.Load().Placement }

// NewPlacement builds a Placement without a Ring: names in that order,
// vnodes points each, replication owners per key (values below 1 mean
// 1). It places exactly as a Ring registering the same names in the
// same order with the same options — the cluster simulator places its
// files with it.
func NewPlacement(names []string, vnodes, replication int) Placement {
	names = slices.Clone(names)
	return Placement{points: buildPoints(names, max(vnodes, 1)), names: names, replication: max(replication, 1)}
}

// Len returns the snapshot's member count.
func (p Placement) Len() int { return len(p.names) }

// Names returns the snapshot's member names in registration order.
// The caller must not mutate the returned slice.
func (p Placement) Names() []string { return p.names }

// Replication returns the placement copies per key under this snapshot.
func (p Placement) Replication() int { return p.replication }

// OwnersInto fills dst with the names of key's owners, primary first,
// and returns how many it wrote: min(len(dst), replication, members).
// This is the allocation-free core of Owners for tight diff loops.
func (p Placement) OwnersInto(key string, dst []string) int {
	return walkOwners(&p, key, dst, func(i int32) string { return p.names[i] })
}

// Owners returns the names of key's owners under this snapshot, primary
// first (at most Replication; nil on an empty snapshot).
func (p Placement) Owners(key string) []string { return p.ownersIn(key, nil) }

// ownersIn is Owners in buf when the placement fits it.
func (p *Placement) ownersIn(key string, buf []string) []string {
	if n := min(p.replication, len(p.names)); n > len(buf) {
		buf = make([]string, n)
	}
	return buf[:p.OwnersInto(key, buf)]
}

// SameOwners reports whether key has an identical ordered owner set
// under p and q — the "no migration needed" test of a remap diff. It
// allocates nothing for replication factors up to 4.
func (p Placement) SameOwners(q Placement, key string) bool {
	var pb, qb [4]string
	return slices.Equal(p.ownersIn(key, pb[:]), q.ownersIn(key, qb[:]))
}

// keyShares returns each member's primary-ownership fraction of the
// hash space: point i owns the arc (hash[i-1], hash[i]], wrapping.
func (p *Placement) keyShares() []float64 {
	shares := make([]float64, len(p.names))
	pts := p.points
	if len(pts) == 0 {
		return shares
	}
	const span = float64(1<<63) * 2 // 2^64 as float64
	prev := pts[len(pts)-1].hash
	for _, pt := range pts {
		arc := pt.hash - prev // wraps correctly in uint64 arithmetic
		shares[pt.owner] += float64(arc) / span
		prev = pt.hash
	}
	if len(pts) == 1 {
		// A single point owns the whole ring (the arc above degenerates
		// to zero when prev == hash).
		shares[pts[0].owner] = 1
	}
	return shares
}
