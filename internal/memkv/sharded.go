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
//     ReadStrategy (default: the paper's threshold rule — race primary
//     and secondary, first response wins, while the client's load is
//     below the threshold, and above it send the primary alone, with the
//     secondary as its failover) and takes per-call options
//     (core.WithFanoutCap, core.WithLabel, …). With core.WithQuorum it
//     is the same call over every owner, comparing versions; every
//     read witnesses the version it returns.
//   - PutVersioned (sharded_versioned.go) is the one write: it mints a
//     version, sends the value to every placement shard and returns once
//     WriteQuorum of them acked; with WriteQuorum < Replication a put
//     survives Replication-WriteQuorum shards being down. PutVersionAt
//     and CAS are the same write with the version chosen differently.
//
// Both are calls on the core engine over one route table of shards; a
// write is core.KeyedGroup.DoDurable over copies that refuse withdrawal,
// so every copy of it runs to completion or becomes a hint, and all
// owners converge on the same bytes under the same version. Missed writes, stale copies
// seen by a quorum read and placement changes are reported to the repair
// sink (internal/repair: hinted handoff, read repair, anti-entropy
// migration). AddShard/RemoveShard themselves only change placement.
type ShardedClient struct {
	mu sync.Mutex // serializes AddShard/RemoveShard; readers never take it
	// shards is the one shard set: the route table every call, read or
	// write, and every per-shard lookup routes through. Each entry holds
	// the shard's client and its member handles in the two groups.
	shards      *ring.Table[*member]
	reads       *core.KeyedGroup[string, Versioned]
	writes      *core.KeyedGroup[putReq, PutVResult]
	writeQuorum int

	// Versioned (convergence) surface — see sharded_versioned.go. clock
	// is the client's Lamport version clock; sink, when set, receives
	// repair work (missed writes and divergence).
	clock versionClock
	sink  atomic.Pointer[RepairSink]
}

// member is one shard in the route table: its client, and its members
// in the read and the write group — one engine, two result types.
type member struct {
	Backend
	read  core.Handle[string, Versioned]
	write core.Handle[putReq, PutVResult]
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
// primary + secondary below the threshold load and fail over above it.
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
	// placement. nil means the client's own
	// core.LoadAware(core.Fixed{Copies: 2}, 0): the paper's
	// primary+secondary race while the client's in-flight copies per
	// shard stay below core.DefaultGovernorThreshold, and above it the
	// primary alone, the secondary launched only if the primary fails.
	// Its governor is fresh per client and counts the client's writes
	// too. core.Fixed{Copies: 2} races at every load;
	// core.Fixed{Copies: 1} reads the primary only; core.AdaptiveHedge
	// hedges the secondary at a latency quantile.
	ReadStrategy core.Strategy
	// Observer, when set, receives per-operation metrics from every read,
	// quorum or not — the observation hook a feedback controller needs to
	// watch per-class latency digests and copies launched. core.Counters
	// is the ready-made implementation; tag calls with core.WithLabel to
	// split classes. Writes are calls on the same engine, and their copies
	// count in the ReadStrategy's governor, but they are not observed: a
	// write-all copy is not one a controller can shed.
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
		cfg.ReadStrategy = core.LoadAware(core.Fixed{Copies: 2}, 0)
	}
	discard := discardRead
	sc := &ShardedClient{
		shards: ring.NewTable[*member](ring.DefaultVirtualNodes, cfg.Replication),
		reads: core.NewReportingKeyedGroup(cfg.ReadStrategy, nil, func(c core.CopyDone[string, Versioned]) {
			if c.Value.Value != nil {
				discard(c.Value)
			}
		}, core.WithObserver(cfg.Observer)),
		writeQuorum: cfg.WriteQuorum,
	}
	sc.writes = core.NewReportingKeyedGroup(nil, putReq.own, sc.writeDone)
	for _, cl := range clients {
		sc.AddShard(cl)
	}
	return sc
}

// discardRead is where the read group's per-copy hook sends a copy's
// value that no caller receives — a loser decoded after its read was
// decided — back to the pool (bufpool.go). It is read once per client,
// when the client is made; a test counts what the hook is handed by
// replacing it before then.
var discardRead = func(v Versioned) { Release(v.Value) }

// AddShard registers a shard; keys whose placement now includes it route
// there from the next call on. Data written under the old placement
// stays where it was: the caller migrates it by taking a
// PlacementSnapshot before and after and running repair.Manager's
// Rebalance(ctx, prev, cur). Adding a shard whose address is already
// present is a no-op.
func (sc *ShardedClient) AddShard(cl Backend) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	addr := cl.Addr()
	if _, ok := sc.shards.Member(addr); ok {
		return
	}
	read := func(ctx context.Context, key string) (Versioned, error) {
		val, ver, ttl, err := cl.GetV(ctx, key)
		return Versioned{Value: val, Version: ver, TTLSecs: ttl}, err
	}
	put := func(ctx context.Context, r putReq) (PutVResult, error) {
		// A write's copy outlives its caller's decision and cancellation,
		// so it detaches; the timeout bounds the goroutine, and a copy it
		// kills becomes a hint.
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), versionedStragglerTimeout)
		defer cancel()
		cur, applied, err := cl.PutV(ctx, r.key, r.value, r.ttl, r.version)
		return PutVResult{Current: cur, Applied: applied, Err: err}, err
	}
	s := &member{Backend: cl}
	if mc, ok := cl.(*MuxClient); ok {
		// A mux client's copies are started, not run: the copies of a
		// call are wire requests on the caller's goroutine, with no
		// goroutine per copy. Only for the concrete type — a Backend that
		// embeds *MuxClient and overrides GetV or PutV (a tracing or
		// counting wrapper) has the promoted Start and StartPutV too, and
		// must keep seeing every copy through its own methods.
		s.read = sc.reads.AddStarter(addr, read, mc)
		s.write = sc.writes.AddStarter(addr, put, (*putStarter)(mc))
	} else {
		s.read = sc.reads.Add(addr, read)
		s.write = sc.writes.Add(addr, put)
	}
	sc.shards.Add(addr, s)
}

// RemoveShard drops the shard serving addr from placement, reporting
// whether it was present. Calls in flight may still complete against it;
// it is not closed (the caller owns its lifecycle). Re-homing its keys is
// the caller's: repair.Manager's Rebalance(ctx, prev, cur) over
// PlacementSnapshots taken around the call, or Drain of the removed
// shard while it is still readable.
func (sc *ShardedClient) RemoveShard(addr string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.shards.Remove(addr) {
		return false
	}
	sc.reads.Remove(addr)
	sc.writes.Remove(addr)
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
	var sb [4]*member
	var hb [4]core.Handle[string, Versioned]
	res, err := sc.reads.DoPicked(ctx, key, readHandles(sc.shards.Route(key, sb[:]), hb[:0]), opts...)
	if err == nil {
		sc.Witness(res.Value.Version)
	}
	return res, err
}

// readHandles appends each owner's read handle to dst.
func readHandles(owners []*member, dst []core.Handle[string, Versioned]) []core.Handle[string, Versioned] {
	for _, s := range owners {
		dst = append(dst, s.read)
	}
	return dst
}

// Owners returns the shard addresses key is placed on, primary first.
func (sc *ShardedClient) Owners(key string) []string { return sc.shards.Placement().Owners(key) }

// Replication returns the placement copies per key.
func (sc *ShardedClient) Replication() int { return sc.shards.Placement().Replication() }

// WriteQuorum returns the configured write quorum.
func (sc *ShardedClient) WriteQuorum() int { return sc.writeQuorum }

// SetReadStrategy replaces the read-side redundancy strategy atomically.
func (sc *ShardedClient) SetReadStrategy(s core.Strategy) { sc.reads.SetStrategy(s) }

// RingStats reports the route table's placement and each shard's read
// statistics: its key share, observed read latency digest quantiles,
// and cancelled-copy counts. Write copies are not in the digests.
func (sc *ShardedClient) RingStats() ring.Stats { return sc.shards.Placement().Stats(sc.reads.Stats()) }

// Close closes all shard clients.
func (sc *ShardedClient) Close() error {
	var err error
	for _, s := range sc.shards.Entries() {
		if e := s.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}
