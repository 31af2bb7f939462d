package memkv

import (
	"context"
	"errors"
	"fmt"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/ring"
)

// This file is ShardedClient's versioned (convergence) surface: the
// client-side half of the repair subsystem. Three pieces live here.
//
//   - A Lamport version clock seeded by the wall clock, so versions
//     minted by independent ShardedClients stay comparable and
//     last-writer-wins resolves sanely across writers (ties and skew
//     bounded by clock skew; deletes carry no tombstones — a concurrent
//     delete can be resurrected by repair, the documented limitation).
//   - PutVersioned, a quorum write that — unlike SetTTL, whose engine
//     cancels losing copies the moment the quorum is met — lets every
//     placement copy run to completion in the background and reports
//     each copy that ultimately failed to the repair sink as a missed
//     write (the hinted-handoff trigger). Durability is exactly the
//     reason the core engine's cancel-at-quorum is wrong here.
//   - GetQuorum, a version-observing quorum read: it returns the newest
//     value among the copies read and reports stale copies (older
//     version, or missing entirely) to the sink for asynchronous read
//     repair, off the caller's critical path.
//
// The sink (see RepairSink) is the seam to internal/repair: memkv knows
// nothing about hint queues, backoff, or the governor — it only reports
// what it observed.

// RepairSink receives the convergence work a ShardedClient observes but
// does not perform itself: missed quorum-write copies (hinted handoff),
// version divergence on quorum reads (read repair), and topology
// changes (anti-entropy migration). repair.Manager is the production
// implementation. Methods must not block — they run on call paths.
type RepairSink interface {
	// WriteMissed reports that a versioned write reached its quorum (or
	// failed) without landing on owner: the hint to queue and replay.
	WriteMissed(key string, value []byte, version uint64, ttl time.Duration, owner string)
	// Divergence reports that a quorum read observed staleOwners holding
	// an older version (or no value) for key; value/version/ttlSecs are
	// the newest observed, to push to the stale copies (the TTL so repair
	// doesn't immortalize an expiring key).
	Divergence(key string, value []byte, version uint64, ttlSecs uint32, staleOwners []string)
	// TopologyChanged reports a shard set change with the placement
	// before and after, for remap-diff migration.
	TopologyChanged(prev, cur ring.Placement)
}

// sinkBox wraps the sink for atomic.Pointer (interfaces can't be stored
// in one directly).
type sinkBox struct{ s RepairSink }

// errShardRemoved reports an operation routed to an owner that a
// concurrent RemoveShard took out of the ring before the call reached it.
var errShardRemoved = errors.New("memkv: shard removed from the ring")

// verVal is the versioned read ring's result: a value, its version, and
// its remaining TTL. Version 0 means the key was absent on that copy.
type verVal struct {
	val     []byte
	ver     uint64
	ttlSecs uint32
}

// SetRepairSink installs (or, with nil, removes) the repair sink. Safe
// to call at any time; calls in flight may still see the old sink.
func (sc *ShardedClient) SetRepairSink(s RepairSink) {
	if s == nil {
		sc.sink.Store(nil)
		return
	}
	sc.sink.Store(&sinkBox{s: s})
}

func (sc *ShardedClient) repairSink() RepairSink {
	if b := sc.sink.Load(); b != nil {
		return b.s
	}
	return nil
}

// NextVersion mints a version strictly greater than any this client has
// minted or witnessed: max(wall clock nanos, last+1). The wall-clock
// floor keeps versions comparable across independent clients.
func (sc *ShardedClient) NextVersion() uint64 {
	for {
		last := sc.clock.Load()
		v := uint64(time.Now().UnixNano())
		if v <= last {
			v = last + 1
		}
		if sc.clock.CompareAndSwap(last, v) {
			return v
		}
	}
}

// Witness advances the version clock to at least v — called with every
// version observed on reads, the Lamport receive rule.
func (sc *ShardedClient) Witness(v uint64) {
	for {
		last := sc.clock.Load()
		if v <= last {
			return
		}
		if sc.clock.CompareAndSwap(last, v) {
			return
		}
	}
}

// versionedStragglerTimeout bounds how long a placement copy of a
// versioned write may keep running after the call returned (quorum met
// or caller gone). On expiry the copy fails and becomes a hint.
const versionedStragglerTimeout = 5 * time.Second

// PutVersioned writes value under key with a freshly minted version and
// returns that version once WriteQuorum placement copies acked.
//
// Unlike SetTTL, copies beyond the quorum are NOT cancelled: every
// placement copy runs to completion (bounded by
// versionedStragglerTimeout, detached from the caller's context), and
// each copy that ultimately fails is reported to the repair sink as a
// missed write — the hinted-handoff path. With fewer acks than the
// quorum possible, the error matches core.ErrQuorumUnreachable.
func (sc *ShardedClient) PutVersioned(ctx context.Context, key string, value []byte, ttl time.Duration) (uint64, error) {
	if err := validateKey(key); err != nil {
		return 0, err
	}
	ver := sc.NextVersion()
	return ver, sc.PutVersionAt(ctx, key, value, ttl, ver)
}

// PutVersionAt is PutVersioned with a caller-supplied version — the
// replay path for hints and migration, where the original version must
// be preserved. version must be nonzero.
func (sc *ShardedClient) PutVersionAt(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if version == 0 {
		return errors.New("memkv: version must be nonzero")
	}
	owners := sc.readsV.Owners(key)
	if len(owners) == 0 {
		return core.ErrNoReplicas
	}
	q := sc.writeQuorum
	if q > len(owners) {
		q = len(owners)
	}
	return sc.replicateVersion(ctx, key, value, ttl, version, owners, q)
}

// replicateVersion pushes an already-versioned value to owners and
// returns once q of them acked (q <= 0 returns immediately — used by
// CAS, whose primary ack already satisfied a quorum of 1). Every copy
// runs to completion detached from the caller (bounded by
// versionedStragglerTimeout); each copy that ultimately fails becomes a
// WriteMissed hint. This is the shared durability tail of PutVersioned,
// PutVersionAt, and CAS.
func (sc *ShardedClient) replicateVersion(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64, owners []string, q int) error {
	if len(owners) == 0 {
		return nil
	}
	if q > len(owners) {
		q = len(owners)
	}
	results := make(chan error, len(owners))
	for _, addr := range owners {
		go func(addr string) {
			// Detached from the caller: a copy that outlives the quorum
			// keeps writing, because durability is the point. The timeout
			// bounds the goroutine; a copy it kills becomes a hint.
			wctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), versionedStragglerTimeout)
			defer cancel()
			err := sc.putOneVersioned(wctx, addr, key, value, ttl, version)
			if err != nil {
				if sink := sc.repairSink(); sink != nil {
					sink.WriteMissed(key, value, version, ttl, addr)
				}
			}
			results <- err
		}(addr)
	}
	acks, fails := 0, 0
	var firstErr error
	for acks < q && len(owners)-fails >= q {
		select {
		case err := <-results:
			if err == nil {
				acks++
			} else {
				fails++
				if firstErr == nil {
					firstErr = err
				}
			}
		case <-ctx.Done():
			return fmt.Errorf("memkv: versioned set %q: %w", key, context.Cause(ctx))
		}
	}
	if acks >= q {
		return nil
	}
	return fmt.Errorf("memkv: versioned set %q (%d/%d acked): %w: %w", key, acks, q, core.ErrQuorumUnreachable, firstErr)
}

func (sc *ShardedClient) putOneVersioned(ctx context.Context, addr, key string, value []byte, ttl time.Duration, version uint64) error {
	vb := sc.VersionedShard(addr)
	if vb == nil {
		return fmt.Errorf("%s: %w", addr, errShardRemoved)
	}
	_, _, err := vb.PutV(ctx, key, value, ttl, version)
	return err
}

// GetQuorum reads key from q placement copies (q < 1 means the client's
// WriteQuorum, the symmetric R+W > N default) and returns the newest
// value and version observed. A copy missing the key counts as a
// successful read of version 0, so the quorum holds over partial misses;
// if every copy read misses, the error is ErrNotFound. Copies observed
// holding an older version — including misses — are reported to the
// repair sink as divergence, which pushes the newest value to them
// asynchronously (read repair, off this call's critical path).
func (sc *ShardedClient) GetQuorum(ctx context.Context, key string, q int) ([]byte, uint64, error) {
	if err := validateKey(key); err != nil {
		return nil, 0, err
	}
	n := sc.readsV.Len()
	if n == 0 {
		return nil, 0, core.ErrNoReplicas
	}
	if q < 1 {
		q = sc.writeQuorum
	}
	if q > sc.replication {
		q = sc.replication
	}
	if q > n {
		q = n
	}
	owners := sc.readsV.Owners(key)
	var outs []core.Outcome[verVal]
	_, err := sc.readsV.Do(ctx, key, core.WithQuorum(q), core.WithCollectOutcomes(&outs))
	if err != nil {
		return nil, 0, fmt.Errorf("memkv: quorum get %q: %w", key, err)
	}
	// Pick the newest version among the copies that completed; Index maps
	// an outcome to its placement slot (0 = primary), hence its owner.
	best := verVal{}
	for _, o := range outs {
		if o.Err == nil && o.Value.ver > best.ver {
			best = o.Value
		}
	}
	var stale []string
	for _, o := range outs {
		if o.Err == nil && o.Value.ver < best.ver && o.Index < len(owners) {
			stale = append(stale, owners[o.Index])
		}
	}
	if best.ver == 0 {
		return nil, 0, fmt.Errorf("memkv: quorum get %q: %w", key, ErrNotFound)
	}
	sc.Witness(best.ver)
	if len(stale) > 0 {
		if sink := sc.repairSink(); sink != nil {
			sink.Divergence(key, best.val, best.ver, best.ttlSecs, stale)
		}
	}
	return best.val, best.ver, nil
}

// VersionedShard returns the client of the shard at addr, for
// single-shard versioned operations; nil if addr is not (or no longer)
// in the ring.
func (sc *ShardedClient) VersionedShard(addr string) Backend {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.clients[addr]
}

// ShardAddrs returns the current shard addresses in registration order.
func (sc *ShardedClient) ShardAddrs() []string { return sc.readsV.Names() }

// PlacementSnapshot captures the current placement as an immutable
// snapshot, for remap-diff enumeration (see ring.Placement).
func (sc *ShardedClient) PlacementSnapshot() ring.Placement { return sc.readsV.Placement() }
