package memkv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
)

// This file applies the paper's redundancy argument to streams. A
// request/response call hides a slow replica by racing copies and
// keeping the first answer; a watch is a long-lived stream, so the same
// trick becomes: subscribe to EVERY shard that can emit the event,
// deliver whichever replica's copy arrives first, and drop the rest by
// (key, version) identity. The subscriber sees each logical event
// exactly once at the fastest replica's latency — and a replica dying
// mid-stream costs availability nothing, because the other
// subscriptions keep delivering while the dead one redials and
// resubscribes in the background.
//
// CAS rides the same placement: the conditional executes at the key's
// primary owner — one serialization point, so of N racing writers with
// the same expected version exactly one wins — and the winner's minted
// version is then replicated verbatim to the remaining owners under the
// write quorum, down the same detached/hinted path every versioned
// write uses.

// ErrCASConflict reports a compare-and-swap whose expected version did
// not match the stored one. Match with errors.Is; the returned version
// is the current one, to retry from.
var ErrCASConflict = errors.New("memkv: compare-and-swap conflict")

// CAS stores value under key only if the key's current version equals
// expect (0 = create if absent). The conditional executes at the key's
// primary owner, which mints the new version on success; that exact
// version then replicates to the remaining placement copies under the
// write quorum (the primary's ack counts toward it), with failed copies
// reported to the repair sink as missed writes. On conflict the error
// matches ErrCASConflict and the returned version is the current one.
//
// value is borrowed as in PutVersioned: yours again when CAS returns. The
// conditional at the primary is a blocking request that encodes value
// before it waits; the replication tail copies value once, len(value)
// bytes in one allocation, only if it returns with a copy still out —
// every CAS under a write quorum below the replication, none under
// write-all.
func (sc *ShardedClient) CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (version uint64, err error) {
	if err := ValidateKey(key); err != nil {
		return 0, err
	}
	if err := validateValue(len(value)); err != nil {
		return 0, err
	}
	var buf [4]*member
	owners := sc.shards.Route(key, buf[:])
	if len(owners) == 0 {
		return 0, core.ErrNoReplicas
	}
	cur, applied, err := owners[0].CAS(ctx, key, value, ttl, expect)
	if err != nil {
		return 0, fmt.Errorf("memkv: cas %q: %w", key, err)
	}
	sc.Witness(cur)
	if !applied {
		return cur, fmt.Errorf("memkv: cas %q: %w (current version %d)", key, ErrCASConflict, cur)
	}
	if len(owners) == 1 {
		return cur, nil
	}
	q := min(sc.writeQuorum, len(owners))
	if err := sc.replicate(ctx, putReq{key: key, value: value, ttl: ttl, version: cur}, owners[1:], q-1); err != nil {
		return cur, fmt.Errorf("memkv: cas %q replicate: %w", key, err)
	}
	return cur, nil
}

// dedupWindow is how many per-key entries the duplicate filter holds
// before rotating its generations. Events for a key older than two
// rotations ago can no longer be deduplicated — sized so that only a
// replica lagging by thousands of distinct keys' events could slip a
// duplicate through.
const dedupWindow = 8192

// eventID is a delivered event's identity for dedup: the stored version
// it concerns plus a rank ordering a value's lifecycle (put=1 before
// expire=2, which share the dying value's version).
type eventID struct {
	ver  uint64
	rank uint8
}

// PrefixWatchStats counts a redundant watch's traffic.
type PrefixWatchStats struct {
	// Delivered is events handed to the consumer (first copy to arrive).
	Delivered int64
	// Duplicates is redundant copies suppressed by the (key, version)
	// filter — in steady state roughly Delivered × (replicas-1).
	Duplicates int64
	// Resubscribes counts per-shard stream re-establishments after a
	// stream ended (connection loss, slow-consumer shed).
	Resubscribes int64
}

// PrefixWatch is a redundant prefix subscription across every shard of
// a ShardedClient: one stream per shard, merged and deduplicated so the
// consumer sees each event exactly once, at the earliest replica's
// latency. Delivery per key is version-monotonic — a copy arriving
// after a newer event for the same key was already delivered is
// suppressed as superseded.
type PrefixWatch struct {
	sc     *ShardedClient
	prefix string
	ctx    context.Context
	cancel context.CancelFunc

	events chan WatchEvent
	wg     sync.WaitGroup

	// mu is the delivery lock: observe holds it from the duplicate
	// filter through the send on events, and nothing else takes it.
	mu   sync.Mutex
	seen map[string]eventID
	prev map[string]eventID

	delivered    atomic.Int64
	duplicates   atomic.Int64
	resubscribes atomic.Int64
}

// WatchPrefix opens a redundant watch for every key starting with
// prefix. It subscribes synchronously once to each shard and requires
// at least one success (shards it could not reach keep retrying in the
// background); buf sizes the merged event channel (non-positive =
// DefaultWatchBuffer). The watch ends when ctx is cancelled or Close is
// called; its Events channel closes once every shard loop has exited.
func (sc *ShardedClient) WatchPrefix(ctx context.Context, prefix string, buf int) (*PrefixWatch, error) {
	addrs := sc.ShardAddrs()
	if len(addrs) == 0 {
		return nil, core.ErrNoReplicas
	}
	if buf < 1 {
		buf = DefaultWatchBuffer
	}
	wctx, cancel := context.WithCancel(ctx)
	w := &PrefixWatch{
		sc:     sc,
		prefix: prefix,
		ctx:    wctx,
		cancel: cancel,
		events: make(chan WatchEvent, buf),
		seen:   make(map[string]eventID, dedupWindow),
	}
	live := 0
	streams := make([]*WatchStream, len(addrs))
	for i, addr := range addrs {
		if cl := sc.VersionedShard(addr); cl != nil {
			if st, err := cl.Watch(wctx, prefix, buf); err == nil {
				streams[i] = st
				live++
			}
		}
	}
	if live == 0 {
		cancel()
		return nil, fmt.Errorf("memkv: watch %q: no shard subscription succeeded: %w", prefix, ErrMuxConnLost)
	}
	for i, addr := range addrs {
		w.wg.Add(1)
		go w.shardLoop(addr, streams[i])
	}
	go func() {
		w.wg.Wait()
		close(w.events)
	}()
	return w, nil
}

// Events returns the merged, deduplicated stream. It closes after
// Close (or ctx cancellation) once every shard subscription has ended.
func (w *PrefixWatch) Events() <-chan WatchEvent { return w.events }

// Prefix returns the watched key prefix.
func (w *PrefixWatch) Prefix() string { return w.prefix }

// Stats snapshots the watch's delivery counters.
func (w *PrefixWatch) Stats() PrefixWatchStats {
	return PrefixWatchStats{
		Delivered:    w.delivered.Load(),
		Duplicates:   w.duplicates.Load(),
		Resubscribes: w.resubscribes.Load(),
	}
}

// Close ends the watch. Safe to call more than once.
func (w *PrefixWatch) Close() { w.cancel() }

// shardLoop owns one shard's subscription for the watch's lifetime:
// consume the stream, and when it ends — connection loss, slow-consumer
// shed, server restart — resubscribe with jittered backoff until the
// watch closes. While this shard is dark, the other shard loops keep
// delivering; events this replica missed were deduplicated copies of
// events the others carried, which is the whole redundancy argument.
func (w *PrefixWatch) shardLoop(addr string, st *WatchStream) {
	defer w.wg.Done()
	backoff := muxRedialBase
	for {
		if st != nil {
			backoff = muxRedialBase
			for ev := range st.Events() {
				w.observe(ev)
			}
			st = nil
			if w.ctx.Err() != nil {
				return
			}
			w.resubscribes.Add(1)
		}
		// (Re)subscribe. The shard may have been removed from the client
		// (loop exits: remaining shards own its keys after migration) or
		// be mid-redial (fail fast, retry after backoff).
		cl := w.sc.VersionedShard(addr)
		if cl == nil {
			return
		}
		next, err := cl.Watch(w.ctx, w.prefix, cap(w.events))
		if err != nil {
			var ok bool
			if backoff, ok = sleepBackoff(backoff, w.ctx.Done()); !ok {
				return
			}
			continue
		}
		st = next
	}
}

// observe runs one replica's copy of an event through the duplicate
// filter and delivers it if it is news: strictly newer than the last
// delivered event for its key, or the same version moving from put to
// expire (a value's two lifecycle events share its version).
//
// It holds the delivery lock from the filter through the send, so events
// leave in the order the filter passed them: a shard loop that passed v1
// cannot be overtaken on the channel by one that passed v2 after it.
// Holding a lock across a send that may block is right here because the
// channel is the stream's single ordered output, which the shard loops
// already contend on, and the select still ends when the watch is
// cancelled, releasing the lock.
func (w *PrefixWatch) observe(ev WatchEvent) {
	rank := uint8(1)
	if ev.Type.final() {
		rank = 2
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	id, ok := w.seen[ev.Key]
	if !ok {
		id, ok = w.prev[ev.Key]
	}
	if ok && (ev.Version < id.ver || (ev.Version == id.ver && rank <= id.rank)) {
		w.duplicates.Add(1)
		return
	}
	w.seen[ev.Key] = eventID{ver: ev.Version, rank: rank}
	if len(w.seen) >= dedupWindow {
		// Generational rotation: lookups span both maps, so the filter
		// remembers between dedupWindow and 2×dedupWindow distinct keys
		// with O(1) rotation instead of per-entry eviction bookkeeping.
		w.prev = w.seen
		w.seen = make(map[string]eventID, dedupWindow)
	}
	select {
	case w.events <- ev:
		w.delivered.Add(1)
	case <-w.ctx.Done():
	}
}
