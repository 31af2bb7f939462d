package memkv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
//   - PutVersioned, a quorum write that is not a ring call: the core
//     engine cancels losing copies the moment a quorum is met, and
//     durability is exactly the reason that is wrong here. Every
//     placement copy runs to completion after the call returned, each
//     copy that ultimately failed is reported to the repair sink as a
//     missed write (the hinted-handoff trigger), and every owner ends
//     up with the one version the client minted. PutVersionAt and CAS
//     are the same write with the version chosen differently. A
//     copy is a wire request, not a goroutine: the write is one pooled
//     writeFrame, every owner's copy is started on the caller's
//     goroutine (MuxClient.StartPutV) and completes into the frame from
//     wherever its outcome is learned, and a straggler is a tag in a
//     connection's table — no goroutine, no context, no timer of its
//     own.
//   - readQuorum, GetResult under core.WithQuorum: a version-observing
//     read that returns the newest value among the copies read and
//     reports stale copies (older version, or missing entirely) to the
//     sink for asynchronous read repair, off the caller's critical path.
//
// The sink (see RepairSink) is the seam to internal/repair: memkv knows
// nothing about hint queues, backoff, or the governor — it only reports
// what it observed.

// RepairSink receives the convergence work a ShardedClient observes but
// does not perform itself: missed quorum-write copies (hinted handoff),
// version divergence on quorum reads (read repair), and topology
// changes (anti-entropy migration). repair.Manager is the production
// implementation. Methods must not block — they run on call paths, and
// WriteMissed under the reporting write's lock.
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
	// TopologyChanged reports a shard set change with the placement
	// before and after, for remap-diff migration.
	TopologyChanged(prev, cur ring.Placement)
}

// sinkBox wraps the sink for atomic.Pointer (interfaces can't be stored
// in one directly).
type sinkBox struct{ s RepairSink }

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
	if err := validateKey(key); err != nil {
		return 0, err
	}
	if err := validateValue(len(value)); err != nil {
		return 0, err
	}
	ver := sc.NextVersion()
	return ver, sc.putVersion(ctx, key, value, ttl, ver)
}

// PutVersionAt is PutVersioned with a caller-supplied version — the
// replay path for hints and migration, where the original version must
// be preserved. version must be nonzero. value is borrowed as in
// PutVersioned.
func (sc *ShardedClient) PutVersionAt(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) error {
	if err := validateKey(key); err != nil {
		return err
	}
	if err := validateValue(len(value)); err != nil {
		return err
	}
	if version == 0 {
		return errors.New("memkv: version must be nonzero")
	}
	return sc.putVersion(ctx, key, value, ttl, version)
}

// putVersion writes an already-validated, already-versioned value to
// every owner of key under the write quorum.
func (sc *ShardedClient) putVersion(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) error {
	t := sc.topo.Load()
	var buf [4]string
	owners := t.owners(key, buf[:])
	if len(owners) == 0 {
		return core.ErrNoReplicas
	}
	return sc.replicateVersion(ctx, t, key, value, ttl, version, owners, sc.writeQuorum)
}

// writeFrame is one versioned write in flight: what is being written,
// to whom, and how many copies have acked or failed. It is the sink of
// every copy (PutVSink): a started copy completes into it
// from its connection's reader, the timer wheel or whoever failed the
// connection; a copy launched the blocking way completes into it from
// its goroutine. Complete is therefore the one place that counts acks,
// reports a missed write, and wakes the caller.
//
// Frames are pooled and reference counted: one reference per copy, held
// until that copy completes, plus the caller's, held until
// replicateVersion returns. The frame goes back to the pool when the
// last reference drops — long after the call returned, if a straggler
// is out — and only then are its fields cleared, so a completion always
// finds the write it belongs to.
//
// The value is the caller's slice, borrowed until replicateVersion
// returns and no longer. A started copy needs it only while it is being
// started; what can outlive the call is a blocking copy's goroutine and
// a failed straggler's hint, and the first of either makes the frame
// copy the value for itself (keepValue) — once per write, never for a
// write whose copies were all started and all done by the return.
type writeFrame struct {
	sc  *ShardedClient
	key string
	ttl time.Duration
	ver uint64
	q   int
	// owners are the copies' destinations, indexed by slot; in ownerBuf
	// for placements of up to four.
	owners   []string
	ownerBuf [4]string

	refs atomic.Int32
	// decided carries the one wake-up of a write: sent when the quorum is
	// met or has become unreachable. Capacity 1, so the completion that
	// sends it never blocks, even if the caller left on its context.
	decided chan struct{}

	mu sync.Mutex
	// value is what is being written: the caller's slice, or the frame's
	// own copy of it once kept is set. Guarded by mu, which Complete holds
	// across the hint it hands value to — so the caller's return, which
	// takes mu to decide whether to keep, cannot overtake a hint that is
	// reading the caller's slice.
	value     []byte
	kept      bool
	acks      int
	fails     int
	firstErr  error
	signalled bool
}

var writeFramePool = sync.Pool{
	New: func() any { return &writeFrame{decided: make(chan struct{}, 1)} },
}

// Complete implements PutVSink: slot's copy has finished, with err if
// it did not land. Called exactly once per copy, from any goroutine.
func (w *writeFrame) Complete(slot int, _ PutVResult, err error) {
	if w.refs.Load() <= 0 {
		panic("memkv: versioned write copy completed into a released frame")
	}
	w.mu.Lock()
	if err == nil {
		w.acks++
	} else {
		w.fails++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	signal := !w.signalled && (w.acks >= w.q || len(w.owners)-w.fails < w.q)
	if signal {
		w.signalled = true
	}
	if err != nil {
		// Before the wake-up: a caller told of a failed write finds its
		// hint already queued. Under mu: see value.
		if sink := w.sc.repairSink(); sink != nil {
			sink.WriteMissed(w.key, w.value, w.ver, w.ttl, w.owners[slot])
		}
	}
	w.mu.Unlock()
	if signal {
		w.decided <- struct{}{}
	}
	w.release()
}

// release drops one reference; the last one returns the frame to the
// pool.
func (w *writeFrame) release() {
	if w.refs.Add(-1) != 0 {
		return
	}
	// Every copy has completed and the caller has returned: nobody else
	// holds w. A wake-up the caller never took (it left on its context)
	// must not greet the next write.
	select {
	case <-w.decided:
	default:
	}
	w.sc, w.key, w.value, w.owners, w.firstErr = nil, "", nil, nil, nil
	w.acks, w.fails, w.signalled, w.kept = 0, 0, false, false
	writeFramePool.Put(w)
}

// keepValue makes w.value the frame's own copy of what the caller lent,
// if it is not already, and returns it. The caller holds w.mu.
func (w *writeFrame) keepValue() []byte {
	if !w.kept {
		w.value = append([]byte(nil), w.value...)
		w.kept = true
	}
	return w.value
}

// putBlocking runs slot's copy of value — the frame's own, see keepValue
// — through b.PutV on its own goroutine: the launch for a copy that
// could not be started.
func (w *writeFrame) putBlocking(ctx context.Context, slot int, b Backend, value []byte) {
	// Detached from the caller: a copy that outlives the quorum keeps
	// writing, because durability is the point. The timeout bounds the
	// goroutine; a copy it kills becomes a hint.
	wctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), versionedStragglerTimeout)
	defer cancel()
	cur, applied, err := b.PutV(wctx, w.key, value, w.ttl, w.ver)
	w.Complete(slot, PutVResult{Current: cur, Applied: applied, Err: err}, err)
}

// replicateVersion pushes an already-versioned value to owners (shards
// of snapshot t) and returns once q of them acked (q <= 0 returns
// immediately — used by CAS, whose primary ack already satisfied a
// quorum of 1) or ctx is done. Every copy runs to completion detached
// from the caller (bounded by versionedStragglerTimeout); each copy that
// ultimately fails becomes a WriteMissed hint. This is the shared
// durability tail of PutVersioned, PutVersionAt, and CAS. value is read
// only until the return; whatever is still to happen then happens to the
// frame's copy.
//
// Each copy is started on this goroutine when its shard is a *MuxClient
// that accepts the start. A start declined (a connection never
// dialed, or one in redial) is launched the blocking way, and so is every copy to
// a shard of any other type: a Backend that embeds *MuxClient and
// overrides PutV — a tracing or counting wrapper — has the promoted
// StartPutV too, and must keep seeing every write copy through its own
// PutV (the rule AddShard follows for reads).
func (sc *ShardedClient) replicateVersion(ctx context.Context, t *topology, key string, value []byte, ttl time.Duration, version uint64, owners []string, q int) error {
	if len(owners) == 0 {
		return nil
	}
	if q > len(owners) {
		q = len(owners)
	}
	w := writeFramePool.Get().(*writeFrame)
	w.sc, w.key, w.value, w.ttl, w.ver, w.q = sc, key, value, ttl, version, q
	w.owners = append(w.ownerBuf[:0], owners...)
	w.signalled = q <= 0
	w.refs.Store(int32(len(owners)) + 1)
	for slot, addr := range w.owners {
		b := t.clients[addr]
		if mc, ok := b.(*MuxClient); ok && mc.StartPutV(key, value, ttl, version, w, slot) {
			continue
		}
		w.mu.Lock()
		kept := w.keepValue()
		w.mu.Unlock()
		go w.putBlocking(ctx, slot, b, kept)
	}
	var err error
	if q > 0 {
		err = w.wait(ctx)
	}
	// A copy still out may yet fail into a hint. Counted from completions
	// under mu, not from refs: a completer drops its reference after it
	// has woken this goroutine.
	w.mu.Lock()
	if w.acks+w.fails < len(w.owners) {
		w.keepValue()
	}
	w.mu.Unlock()
	w.release()
	return err
}

// wait blocks until the write is decided or ctx is done, and reports
// the write's outcome.
func (w *writeFrame) wait(ctx context.Context) error {
	select {
	case <-w.decided:
	case <-ctx.Done():
		return fmt.Errorf("memkv: versioned set %q: %w", w.key, context.Cause(ctx))
	}
	w.mu.Lock()
	acks, firstErr := w.acks, w.firstErr
	w.mu.Unlock()
	if acks >= w.q {
		return nil
	}
	return fmt.Errorf("memkv: versioned set %q (%d/%d acked): %w: %w", w.key, acks, w.q, core.ErrQuorumUnreachable, firstErr)
}

// readQuorum is GetResult with core.WithQuorum(q): the read ring's call
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
func (sc *ShardedClient) readQuorum(ctx context.Context, key string, q int, outs *[]core.Outcome[Versioned], opts []core.CallOption) (core.Result[Versioned], error) {
	var zero core.Result[Versioned]
	if err := validateKey(key); err != nil {
		return zero, err
	}
	n := sc.reads.Len()
	if n == 0 {
		return zero, core.ErrNoReplicas
	}
	q = min(q, sc.replication, n)
	owners := sc.reads.Owners(key)
	if outs == nil {
		outs = new([]core.Outcome[Versioned])
	}
	res, err := sc.reads.Do(ctx, key, append(opts[:len(opts):len(opts)],
		core.WithStrategyOverride(core.FullReplicate{}), core.WithQuorum(q),
		core.WithCollectOutcomes(outs), core.WithNegativeAnswer(ErrNotFound))...)
	if err != nil && !errors.Is(err, ErrNotFound) {
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
			stale = append(stale, owners[o.Index])
		}
	}
	sc.Witness(res.Value.Version)
	if len(stale) > 0 {
		if sink := sc.repairSink(); sink != nil {
			sink.Divergence(key, res.Value.Value, res.Value.Version, res.Value.TTLSecs, stale)
		}
	}
	return res, nil
}

// VersionedShard returns the client of the shard at addr, for
// single-shard versioned operations; nil if addr is not (or no longer)
// in the ring.
func (sc *ShardedClient) VersionedShard(addr string) Backend {
	return sc.topo.Load().clients[addr]
}

// ShardAddrs returns the current shard addresses in registration order.
func (sc *ShardedClient) ShardAddrs() []string { return sc.reads.Names() }

// PlacementSnapshot captures the current placement as an immutable
// snapshot, for remap-diff enumeration (see ring.Placement).
func (sc *ShardedClient) PlacementSnapshot() ring.Placement { return sc.topo.Load().placement }
