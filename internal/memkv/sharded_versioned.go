package memkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/ring"
)

// This file is ShardedClient's write path — every write it has — and
// the rest of its versioned (convergence) surface: the client-side half
// of the repair subsystem. Three pieces live here.
//
//   - A Lamport version clock seeded by the wall clock, so versions
//     minted by independent ShardedClients stay comparable and
//     last-writer-wins resolves sanely across writers (ties and skew
//     bounded by clock skew). No delete exists: TTL expiry is the only
//     removal, so there is nothing for repair to resurrect.
//   - PutVersioned, a quorum write: a call on the core engine
//     (core.KeyedGroup.DoDurable) that returns at the write quorum. It
//     withdraws nothing, because durability is the point, and that is
//     this file's decision, not the engine's: a started put refuses its
//     Cancel (putStarter), and a blocking one detaches from its caller.
//     Every copy runs to completion, the write group's per-copy hook
//     reports each one that failed to the repair sink as a missed write
//     (the hinted-handoff trigger), and every owner ends up with the one
//     version the client minted. PutVersionAt and CAS are the same write
//     with the version chosen differently. A copy is a wire request
//     started on the caller's goroutine (MuxClient.StartPutV), and a
//     straggler is a tag in a connection's table. The copies count in
//     the read strategy's governor: server load is load whatever the op.
//   - readQuorum, GetResult under core.WithQuorum: a version-observing
//     read that returns the newest value among the copies read and
//     reports stale copies (older version, or missing entirely) to the
//     sink for asynchronous read repair, off the caller's critical path.
//
// The sink (see RepairSink) is the seam to internal/repair: memkv knows
// nothing about hint queues, backoff, or the governor — it only reports
// what it observed.

// RepairSink receives the convergence work a ShardedClient observes but
// does not perform itself: missed quorum-write copies (hinted handoff)
// and version divergence on quorum reads (read repair). A change of the
// shard set is not reported: the caller that makes it runs the
// migration, repair.Manager's Rebalance(ctx, prev, cur). repair.Manager
// is the production implementation. Methods must not block — they run
// on call paths, WriteMissed in the write group's per-copy hook.
type RepairSink interface {
	// WriteMissed reports that a versioned write reached its quorum (or
	// failed) without landing on owner: the hint to queue and replay.
	// value is valid for the duration of the call — it may be the writer's
	// own slice, which the writer reuses once its put returns; keep a
	// copy.
	WriteMissed(key string, value []byte, version uint64, ttl time.Duration, owner string)
	// Divergence reports that a quorum read observed staleOwners holding
	// an older version (or no value) for key; value/version/ttlSecs are
	// the newest observed, to push to the stale copies (the TTL so repair
	// doesn't immortalize an expiring key). value is valid for the
	// duration of the call — the reader may Release it after; keep a
	// copy.
	Divergence(key string, value []byte, version uint64, ttlSecs uint32, staleOwners []string)
}

// SetRepairSink installs (or, with nil, removes) the repair sink. Safe
// to call at any time; calls in flight may still see the old sink.
func (sc *ShardedClient) SetRepairSink(s RepairSink) {
	if s == nil {
		sc.sink.Store(nil)
		return
	}
	sc.sink.Store(&s)
}

func (sc *ShardedClient) repairSink() RepairSink {
	if p := sc.sink.Load(); p != nil {
		return *p
	}
	return nil
}

// NextVersion mints a version strictly greater than any this client has
// minted or witnessed: max(wall clock nanos, last+1). The wall-clock
// floor keeps versions comparable across independent clients.
func (sc *ShardedClient) NextVersion() uint64 { return sc.clock.next() }

// Witness advances the version clock to at least v — called with the
// version every read returns, the Lamport receive rule.
func (sc *ShardedClient) Witness(v uint64) { sc.clock.witness(v) }

// versionedStragglerTimeout bounds how long a placement copy of a
// versioned write may keep running after the call returned (quorum met
// or caller gone). On expiry the copy fails and becomes a hint.
const versionedStragglerTimeout = 5 * time.Second

// PutVersioned writes value under key, expiring after ttl (rounded up to
// whole seconds; 0 = never), with a freshly minted version and returns
// that version once WriteQuorum placement copies acked. It is the
// ShardedClient write.
//
// Copies beyond the quorum are NOT cancelled: every placement copy runs
// to completion (bounded by versionedStragglerTimeout, detached from the
// caller's context), and each copy that ultimately fails is reported to
// the repair sink as a missed write — the hinted-handoff path. With
// fewer acks than the quorum possible, the error matches
// core.ErrQuorumUnreachable. A key or value no client may send (a value
// over the limit is ErrValueTooLarge) fails the call before a version
// is minted: no owner sees the write and no hint is queued.
//
// value is borrowed for the call and yours again when it returns, error
// or not: nothing reads it afterwards, however long a straggler takes. A
// write-all put that succeeds copies nothing — every copy was encoded
// into its connection before the return. A put that returns with a copy
// still out (WriteQuorum < Replication, a failed quorum, a context that
// ended) or that had to launch one the blocking way has made one private
// copy of value, len(value) bytes in one allocation, which a late hint
// carries.
func (sc *ShardedClient) PutVersioned(ctx context.Context, key string, value []byte, ttl time.Duration) (uint64, error) {
	if err := ValidateKey(key); err != nil {
		return 0, err
	}
	if err := validateValue(len(value)); err != nil {
		return 0, err
	}
	ver := sc.NextVersion()
	return ver, sc.putVersion(ctx, putReq{key: key, value: value, ttl: ttl, version: ver})
}

// PutVersionAt is PutVersioned with a caller-supplied version — the
// replay path for hints and migration, where the original version must
// be preserved. version must be nonzero. value is borrowed as in
// PutVersioned.
func (sc *ShardedClient) PutVersionAt(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if err := validateValue(len(value)); err != nil {
		return err
	}
	if version == 0 {
		return errors.New("memkv: version must be nonzero")
	}
	return sc.putVersion(ctx, putReq{key: key, value: value, ttl: ttl, version: version})
}

// putVersion writes an already-validated, already-versioned value to
// every owner of its key under the write quorum.
func (sc *ShardedClient) putVersion(ctx context.Context, r putReq) error {
	var buf [4]*member
	return sc.replicate(ctx, r, sc.shards.Route(r.key, buf[:]), sc.writeQuorum)
}

// putReq is one versioned write: the write group's call argument.
type putReq struct {
	key     string
	value   []byte
	ttl     time.Duration
	version uint64
}

// own is the write group's argument owner: r with its own copy of the
// value the caller lent, for a copy that reports after the put returned.
func (r putReq) own() putReq {
	r.value = bytes.Clone(r.value)
	return r
}

// putStarter is a MuxClient as the write group's core.Starter: Start is
// StartPutV, with the call frame as its sink. A started put cannot be
// withdrawn: Cancel refuses, so a decided write leaves its copies out,
// and each completes and reports after the put returned.
type putStarter MuxClient

func (p *putStarter) Start(r putReq, sink core.Sink[PutVResult], slot int) (core.Ticket, bool) {
	return core.Ticket{}, (*MuxClient)(p).StartPutV(r.key, r.value, r.ttl, r.version, sink, slot)
}

func (*putStarter) Cancel(core.Ticket) bool { return false }

// writeDone is the write group's per-copy hook: a copy that failed is a
// missed write for the repair sink, exactly one per copy. Its Arg is
// the caller's before the put returns and the write's own copy after.
func (sc *ShardedClient) writeDone(c core.CopyDone[putReq, PutVResult]) {
	if sink := sc.repairSink(); c.Err != nil && sink != nil {
		sink.WriteMissed(c.Arg.key, c.Arg.value, c.Arg.version, c.Arg.ttl, c.Replica)
	}
}

// replicate is the write call, the shared tail of PutVersioned,
// PutVersionAt and CAS: r to owners, returning once q of them acked (q
// <= 0 returns once the copies are out: CAS, whose primary ack already
// met a quorum of 1), too few can, or ctx is done.
func (sc *ShardedClient) replicate(ctx context.Context, r putReq, owners []*member, q int) error {
	var hb [4]core.Handle[putReq, PutVResult]
	picked := hb[:0]
	for _, s := range owners {
		picked = append(picked, s.write)
	}
	err := sc.writes.DoDurable(ctx, r, picked, q, core.GovernorOf(sc.reads.Strategy()))
	if err == nil || err == core.ErrNoReplicas {
		return err
	}
	return fmt.Errorf("memkv: versioned set %q: %w", r.key, err)
}

// readQuorum is GetResult with core.WithQuorum(q): the read group's call
// over every owner (divergence is only observable on the copies actually
// read), completing on min(q, Replication, shards) answers, with opts'
// other options kept. It returns the newest value and version observed,
// and Index names that copy. A copy missing the key answers version 0
// (core.WithNegativeAnswer), so the quorum holds over partial misses; if
// every copy read misses, the error is ErrNotFound. Copies observed
// holding an older version — including misses — are reported to the
// repair sink as divergence, which pushes the newest value to them
// asynchronously (read repair, off this call's critical path). The TTL a
// copy reports is rounded up, and repair re-applies it, so readQuorum
// takes a second off and counts a copy with no whole second left as a
// miss: the key's final second is forfeited here, though a read without
// a quorum still returns it. outs, the caller's collector when it passed
// one, receives the votes as counted: a miss as a version-0 answer.
// Votes in a list of its own (from votePool, and back there at the
// return) are nobody's but the returned one, so it releases every other
// vote's value, a vote it zeroes included.
func (sc *ShardedClient) readQuorum(ctx context.Context, key string, q int, outs *[]core.Outcome[Versioned], opts []core.CallOption) (core.Result[Versioned], error) {
	var zero core.Result[Versioned]
	if err := ValidateKey(key); err != nil {
		return zero, err
	}
	var sb [4]*member
	owners := sc.shards.Route(key, sb[:])
	if len(owners) == 0 {
		return zero, core.ErrNoReplicas
	}
	q = min(q, len(owners))
	own := outs == nil
	if own {
		outs = votePool.Get().(*[]core.Outcome[Versioned])
		defer putVotes(outs)
	}
	var ob [8]core.CallOption
	var hb [4]core.Handle[string, Versioned]
	res, err := sc.reads.DoPicked(ctx, key, readHandles(owners, hb[:0]), append(append(ob[:0], opts...),
		fullReplicate, core.WithQuorum(q), core.WithCollectOutcomes(outs), core.WithNegativeAnswer(ErrNotFound))...)
	if err != nil && !errors.Is(err, ErrNotFound) {
		var qe *core.QuorumError[Versioned]
		if own && !errors.As(err, &qe) {
			// The caller's context ended the call: no vote is returned.
			releaseVotes(*outs, -1)
		}
		return zero, fmt.Errorf("memkv: quorum get %q: %w", key, err)
	}
	// A miss is version 0. Index maps an outcome to its placement slot
	// (0 = primary), hence its owner.
	votes := *outs
	newest := -1
	for i := range votes {
		o := &votes[i]
		switch {
		case errors.Is(o.Err, ErrNotFound):
			o.Err = nil
		case o.Err != nil:
			continue
		case o.Value.TTLSecs == 1:
			if own {
				Release(o.Value.Value)
			}
			o.Value = Versioned{}
		case o.Value.TTLSecs > 1:
			o.Value.TTLSecs--
		}
		if o.Value.Version > 0 && (newest < 0 || o.Value.Version > votes[newest].Value.Version) {
			newest = i
		}
	}
	if newest < 0 {
		return zero, fmt.Errorf("memkv: quorum get %q: %w", key, ErrNotFound)
	}
	res.Value, res.Index = votes[newest].Value, votes[newest].Index
	var stale []string
	for _, o := range votes {
		if o.Err == nil && o.Value.Version < res.Value.Version && o.Index < len(owners) {
			stale = append(stale, owners[o.Index].Addr())
		}
	}
	if own {
		releaseVotes(votes, newest)
	}
	sc.Witness(res.Value.Version)
	if len(stale) > 0 {
		if sink := sc.repairSink(); sink != nil {
			sink.Divergence(key, res.Value.Value, res.Value.Version, res.Value.TTLSecs, stale)
		}
	}
	return res, nil
}

// votePool recycles the vote lists of the quorum reads that keep their
// own (readQuorum), so a read grows none; fullReplicate is their
// strategy override, boxed once.
var (
	votePool      = sync.Pool{New: func() any { return new([]core.Outcome[Versioned]) }}
	fullReplicate = core.WithStrategyOverride(core.FullReplicate{})
)

// putVotes returns a vote list to votePool, keeping none of its values.
func putVotes(votes *[]core.Outcome[Versioned]) {
	clear(*votes)
	*votes = (*votes)[:0]
	votePool.Put(votes)
}

// releaseVotes releases the values of every vote but votes[keep].
func releaseVotes(votes []core.Outcome[Versioned], keep int) {
	for i, o := range votes {
		if i != keep {
			Release(o.Value.Value)
		}
	}
}

// VersionedShard returns the client of the shard at addr, for
// single-shard versioned operations; nil if addr is not (or no longer)
// in the ring.
func (sc *ShardedClient) VersionedShard(addr string) Backend {
	if s, ok := sc.shards.Member(addr); ok {
		return s.Backend
	}
	return nil
}

// ShardAddrs returns the current shard addresses in registration order.
func (sc *ShardedClient) ShardAddrs() []string { return slices.Clone(sc.shards.Placement().Names()) }

// PlacementSnapshot captures the current placement as an immutable
// snapshot, for remap-diff enumeration (see ring.Placement).
func (sc *ShardedClient) PlacementSnapshot() ring.Placement { return sc.shards.Placement() }
