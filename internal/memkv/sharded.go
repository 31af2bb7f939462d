package memkv

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/ring"
)

// ShardedClient partitions the keyspace across many single-shard memkv
// servers on a consistent-hash ring — the live-stack counterpart of the
// paper's §2.2 disk-backed storage service, where "files are partitioned
// across servers via consistent hashing, and two copies are stored of
// every file". Each key is placed on Replication distinct shards
// (primary + successors):
//
//   - GetResult (and Get, its value) is the one read. It issues the
//     read redundantly within the key's placement under the configured
//     ReadStrategy (default: race primary + secondary, first response
//     wins — the paper's scheme) and takes per-call options
//     (core.WithFanoutCap, core.WithLabel, …). With core.WithQuorum it
//     is the same ring call over every owner, comparing versions; every
//     read witnesses the version it returns.
//   - PutVersioned (sharded_versioned.go) is the one write: it mints a
//     version, sends the value to every placement shard and returns once
//     WriteQuorum of them acked; with WriteQuorum < Replication a put
//     survives Replication-WriteQuorum shards being down. PutVersionAt
//     and CAS are the same write with the version chosen differently.
//
// Every copy of a write runs to completion or becomes a hint, so all
// owners converge on the same bytes under the same version; missed
// writes, stale copies seen by a quorum read and topology changes are
// reported to the repair sink (internal/repair: hinted handoff, read
// repair, anti-entropy migration). AddShard/RemoveShard themselves only
// change placement.
type ShardedClient struct {
	mu sync.Mutex // serializes AddShard/RemoveShard; the ring has its own engine
	// topo is the shard set as AddShard/RemoveShard last left it, swapped
	// whole: readers (the versioned write path, every per-shard lookup)
	// load it without a lock.
	topo        atomic.Pointer[topology]
	reads       *ring.Ring[string, Versioned]
	replication int
	writeQuorum int

	// Versioned (convergence) surface — see sharded_versioned.go. clock
	// is the client's Lamport version clock; sink, when set, receives
	// repair work (missed writes, divergence, topology changes).
	clock versionClock
	sink  atomic.Pointer[sinkBox]
}

// topology is one immutable snapshot of the shard set: every shard's
// client by address, and the placement that routes keys over exactly
// those shards. A versioned write resolves its owners and their clients
// from one snapshot, so the two can never disagree.
type topology struct {
	clients   map[string]Backend
	placement ring.Placement
}

// owners returns key's owners under this snapshot, primary first, in buf
// when the placement fits it.
func (t *topology) owners(key string, buf []string) []string {
	if r := t.placement.Replication(); r > len(buf) {
		buf = make([]string, r)
	}
	return buf[:t.placement.OwnersInto(key, buf)]
}

// Backend is the single-shard client surface ShardedClient and the
// repair subsystem route over. MuxClient is the production
// implementation; the interface is the seam where a wrapper that embeds
// *MuxClient (a tracer, a test's call counter) overrides the calls it
// wants to see.
//
// An implementation must not keep a value argument past its return: CAS
// is handed the slice its caller lent for the call (see PutVersioned).
type Backend interface {
	Addr() string
	Close() error

	// The one read, carrying the value's version and remaining TTL;
	// version-carrying writes; the anti-entropy scan.
	GetV(ctx context.Context, key string) (value []byte, version uint64, ttlSecs uint32, err error)
	PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (current uint64, applied bool, err error)
	PutVBatch(ctx context.Context, puts []VersionedPut) []PutVResult
	Scan(ctx context.Context, after string, limit int) (entries []ScanEntry, more bool, err error)

	// Conditional writes and prefix subscriptions.
	CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (current uint64, applied bool, err error)
	Watch(ctx context.Context, prefix string, buf int) (*WatchStream, error)
}

// VersionedBackend, CASBackend and WatchableBackend are other names
// for Backend, kept because bench/'s tracer test asserts that its
// wrapper satisfies each.
type (
	VersionedBackend = Backend
	CASBackend       = Backend
	WatchableBackend = Backend
)

// ShardedConfig configures a ShardedClient. The zero value means:
// 2 placement copies per key, writes ack on every copy, reads race
// primary + secondary.
type ShardedConfig struct {
	// Replication is the number of shards each key is stored on
	// (primary + Replication-1 successors). Values below 1 mean
	// ring.DefaultReplication (2).
	Replication int
	// WriteQuorum is how many placement shards must ack a write
	// (PutVersioned, PutVersionAt, CAS's replication) before it returns;
	// the remaining copies keep running and a copy that fails becomes a
	// hint. Values below 1 mean Replication (write-all). A quorum is
	// always clamped to the key's owners, so a bootstrapping single-shard
	// ring still accepts writes.
	WriteQuorum int
	// ReadStrategy decides the redundancy of a Get within the key's
	// placement: nil means core.Fixed{Copies: 2} (the paper's
	// primary+secondary race); core.Fixed{Copies: 1} reads the primary
	// only; core.AdaptiveHedge hedges the secondary at a latency
	// quantile.
	ReadStrategy core.Strategy
	// Observer, when set, receives per-operation metrics from the read
	// ring (every read, quorum or not; writes are not ring calls) — the
	// observation hook a feedback controller needs to watch per-class
	// latency digests and copies launched. core.Counters is the ready-made
	// implementation; tag calls with core.WithLabel to split classes.
	Observer core.Observer
}

// NewShardedClient builds a sharded store over the given single-shard
// clients. Shards are named by their client's Addr.
func NewShardedClient(cfg ShardedConfig, clients ...Backend) *ShardedClient {
	if cfg.Replication < 1 {
		cfg.Replication = ring.DefaultReplication
	}
	if cfg.WriteQuorum < 1 || cfg.WriteQuorum > cfg.Replication {
		cfg.WriteQuorum = cfg.Replication
	}
	if cfg.ReadStrategy == nil {
		cfg.ReadStrategy = core.Fixed{Copies: 2}
	}
	sc := &ShardedClient{
		replication: cfg.Replication,
		writeQuorum: cfg.WriteQuorum,
	}
	ropts := []ring.Option{ring.WithReplication(cfg.Replication)}
	if cfg.Observer != nil {
		ropts = append(ropts, ring.WithObserver(cfg.Observer))
	}
	sc.reads = ring.New[string, Versioned](cfg.ReadStrategy, ropts...)
	sc.topo.Store(&topology{placement: sc.reads.Placement()})
	for _, cl := range clients {
		sc.AddShard(cl)
	}
	return sc
}

// AddShard registers a shard; keys whose placement now includes it route
// there from the next call on. Data written under the old topology is
// converged by the repair sink, if one is installed (repair.Manager):
// the sink is notified with the before/after placements and migrates
// remapped keys in the background. Adding a shard whose address is
// already present is a no-op.
func (sc *ShardedClient) AddShard(cl Backend) {
	sc.mu.Lock()
	addr := cl.Addr()
	prev := sc.topo.Load()
	if _, ok := prev.clients[addr]; ok {
		sc.mu.Unlock()
		return
	}
	read := func(ctx context.Context, key string) (Versioned, error) {
		val, ver, ttl, err := cl.GetV(ctx, key)
		return Versioned{Value: val, Version: ver, TTLSecs: ttl}, err
	}
	if mc, ok := cl.(*MuxClient); ok {
		// A mux client's reads are started, not run: the copies of a
		// redundant read are wire requests on the caller's goroutine,
		// with no goroutine per copy. Only for the concrete type — a
		// Backend that embeds *MuxClient and overrides GetV (a tracing or
		// counting wrapper) has the promoted Start too, and must keep
		// seeing every read copy through its own GetV.
		sc.reads.AddStarter(addr, read, mc)
	} else {
		sc.reads.Add(addr, read)
	}
	cur := sc.publishLocked(prev, addr, cl)
	sink := sc.repairSink()
	sc.mu.Unlock()
	if sink != nil {
		sink.TopologyChanged(prev.placement, cur.placement)
	}
}

// publishLocked swaps in the snapshot that follows prev once the ring
// has changed: prev's clients with addr set to cl, or without addr when
// cl is nil. The caller holds sc.mu.
func (sc *ShardedClient) publishLocked(prev *topology, addr string, cl Backend) *topology {
	cur := &topology{
		clients:   make(map[string]Backend, len(prev.clients)+1),
		placement: sc.reads.Placement(),
	}
	for a, c := range prev.clients {
		cur.clients[a] = c
	}
	if cl != nil {
		cur.clients[addr] = cl
	} else {
		delete(cur.clients, addr)
	}
	sc.topo.Store(cur)
	return cur
}

// RemoveShard drops the shard serving addr from placement, reporting
// whether it was present. Calls in flight may still complete against it;
// it is not closed (the caller owns its lifecycle). An installed repair
// sink is notified with the before/after placements so remapped keys can
// be re-homed (the removed shard may still be readable for draining).
func (sc *ShardedClient) RemoveShard(addr string) bool {
	sc.mu.Lock()
	prev := sc.topo.Load()
	if _, ok := prev.clients[addr]; !ok {
		sc.mu.Unlock()
		return false
	}
	sc.reads.Remove(addr)
	cur := sc.publishLocked(prev, addr, nil)
	sink := sc.repairSink()
	sc.mu.Unlock()
	if sink != nil {
		sink.TopologyChanged(prev.placement, cur.placement)
	}
	return true
}

// Get is GetResult's value: the one read, with its per-call options.
//
// The value is the caller's own. A caller that has consumed it may hand
// its buffer to a later read with Release; that is optional, and applies
// to every read — not to scan entries or watch events.
func (sc *ShardedClient) Get(ctx context.Context, key string, opts ...core.CallOption) ([]byte, error) {
	res, err := sc.GetResult(ctx, key, opts...)
	if err != nil {
		return nil, err
	}
	return res.Value.Value, nil
}

// GetResult reads key and returns the value with its version and TTL
// and the redundancy metadata (winner index, latency, copies launched
// and cancelled). Every read witnesses the version it returns.
//
// Without a quorum it reads redundantly within the key's placement
// under the client's ReadStrategy and returns the first success. Per-call
// options tune one read: core.WithFanoutCap(1) for a single copy,
// core.WithStrategyOverride for a one-off policy, core.WithLabel for
// metrics. A copy that misses the key has failed (a hedged read falls
// through to the next owner); a key absent from every queried shard
// reports errors.Is(err, ErrNotFound).
//
// With core.WithQuorum(q), q ≥ 1, it is the consistency read: it asks
// every owner, waits for min(q, Replication, shards) answers — a miss
// is an answer, at version 0 — and returns the newest version among
// them. Stale owners go to the repair sink (see readQuorum).
//
// Many keys at once are many concurrent reads: each is its own call,
// and they share every connection.
func (sc *ShardedClient) GetResult(ctx context.Context, key string, opts ...core.CallOption) (core.Result[Versioned], error) {
	if q, collect := core.QuorumOf[Versioned](opts); q >= 1 {
		return sc.readQuorum(ctx, key, q, collect, opts)
	}
	res, err := sc.reads.Do(ctx, key, opts...)
	if err == nil {
		sc.Witness(res.Value.Version)
	}
	return res, err
}

// Owners returns the shard addresses key is placed on, primary first.
func (sc *ShardedClient) Owners(key string) []string { return sc.reads.Owners(key) }

// Replication returns the placement copies per key.
func (sc *ShardedClient) Replication() int { return sc.replication }

// WriteQuorum returns the configured write quorum.
func (sc *ShardedClient) WriteQuorum() int { return sc.writeQuorum }

// SetReadStrategy replaces the read-side redundancy strategy atomically.
func (sc *ShardedClient) SetReadStrategy(s core.Strategy) { sc.reads.SetStrategy(s) }

// RingStats reports the read ring's placement and per-shard latency
// statistics: each shard's key share, observed latency digest quantiles,
// and cancelled-copy counts.
func (sc *ShardedClient) RingStats() ring.Stats { return sc.reads.Stats() }

// shards snapshots the current shard clients, in no particular order.
func (sc *ShardedClient) shards() []Backend {
	t := sc.topo.Load()
	clients := make([]Backend, 0, len(t.clients))
	for _, cl := range t.clients {
		clients = append(clients, cl)
	}
	return clients
}

// Close closes all shard clients.
func (sc *ShardedClient) Close() error {
	var err error
	for _, cl := range sc.shards() {
		if e := cl.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}
