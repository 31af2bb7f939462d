// Package repair is the convergence subsystem over the sharded memkv
// data plane: it makes the redundancy the paper's analysis assumes —
// every replica in a key's placement actually holds the data — true
// again after failures and topology changes, without putting that work
// on any caller's critical path.
//
// A Manager implements memkv.RepairSink. It keeps one queue of *hints*,
// each a version some owner is missing, and two of the signals a
// ShardedClient emits feed it:
//
//   - WriteMissed (a quorum write's copy failed) queues one hint for
//     the owner that missed the write — Dynamo-style hinted handoff.
//   - Divergence (a quorum read saw stale or missing copies) queues one
//     hint per stale owner, carrying the newest value read — read
//     repair.
//
// The replay loop sends each owner its hints with per-owner exponential
// backoff until they land, and reroutes them through the ring when the
// owner has left the topology. The queue is bounded, in memory and
// drops its oldest hint at either cap; a restart loses it. The recovery
// is a full anti-entropy pass — Rebalance from an empty placement, or
// Drain of a shard — which re-pushes what the shards hold to every
// owner.
//
// A change of the shard set is not a signal: whoever calls AddShard or
// RemoveShard takes a PlacementSnapshot before and after and runs
// Rebalance(ctx, prev, cur), an *anti-entropy migration* that diffs the
// two placements (ring.Placement.SameOwners), streams only remapped keys
// off each shard with cursor-paged scans, and re-puts them at their new
// owners in batches. Replay and migration hand values to an owner
// through the same push.
//
// Background work yields to foreground load: each replay pass and each
// migration page first asks the shared core.Governor's AllowBackground
// gate, which only opens below the governor's low-water utilization
// mark. Versioned last-writer-wins puts make every repair action safe
// to repeat and safe to race with live writes — a repair can only ever
// install a value at a replica that lacks something newer.
//
// Limitations (documented, deliberate): there is no delete — TTL expiry
// is the only removal, and every repair path carries the remaining TTL,
// so none re-animates an expired key; version comparability across
// independent writers relies on the wall-clock-seeded Lamport clocks in
// ShardedClient and Store.
package repair

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
)

// How every Manager paces and bounds its background work.
const (
	batchSize    = 64  // versioned puts per PutVBatch
	scanPageSize = 256 // entries per anti-entropy scan page
	// maxHintEntries and maxHintBytes bound the hint queue: at either cap
	// the oldest hint is dropped (counted in Stats), so a long-dead owner
	// cannot OOM the process holding its hints.
	maxHintEntries        = 4096
	maxHintBytes          = 16 << 20
	defaultReplayInterval = 100 * time.Millisecond
	replayMaxBackoff      = 5 * time.Second // cap on an owner's replay backoff
	pushTimeout           = 5 * time.Second // bound on one batch or rerouted put
	// backgroundPause is how long background work sleeps when the
	// governor defers it before asking again.
	backgroundPause = 10 * time.Millisecond
)

// Config configures a Manager. The zero value means no governor
// (background work always allowed) and replay every 100 ms.
type Config struct {
	// Governor, when set, gates every unit of background work (hint
	// replay pass, migration page) on AllowBackground —
	// share the governor that also measures foreground load, so
	// convergence traffic yields to it.
	Governor *core.Governor
	// ReplayInterval is the hint replay cadence and the initial
	// per-owner backoff (0 = 100 ms).
	ReplayInterval time.Duration
}

// Stats is a point-in-time view of a Manager's counters.
type Stats struct {
	// Hints: missed writes and read repairs alike.
	HintsQueued   int64 // hints accepted into the queue
	HintsReplayed int64 // hints that landed at their owner (or rerouted)
	HintsDropped  int64 // oldest-dropped at the entry/byte caps
	HintsExpired  int64 // hints discarded because their TTL deadline passed
	HintsPending  int64 // currently queued
	HintBytes     int64 // bytes currently queued
	// DivergenceObserved counts Divergence reports; each queues one hint
	// per stale owner.
	DivergenceObserved int64
	// Anti-entropy migration.
	Rebalances     int64 // Rebalance passes completed
	KeysScanned    int64 // entries seen by migration scans
	KeysMigrated   int64 // entries pushed to at least one new owner
	MigrateStale   int64 // migration puts refused as stale (already newer)
	MigrateExpired int64 // migration puts skipped because the entry expired in flight
	MigrateErrs    int64 // migration put/scan errors
}

// Manager is the convergence worker: install it on a ShardedClient with
// SetRepairSink, then Start it. See the package comment for what it
// does. All methods are safe for concurrent use.
type Manager struct {
	sc  *memkv.ShardedClient
	cfg Config

	hints hintQueue

	stopC   chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	started bool
	closed  bool

	stDivergeObs   atomic.Int64
	stRebalances   atomic.Int64
	stScanned      atomic.Int64
	stMigrated     atomic.Int64
	stStale        atomic.Int64
	stMigExpired   atomic.Int64
	stMigErrs      atomic.Int64
	stReplayed     atomic.Int64
	stHintsExpired atomic.Int64
}

var _ memkv.RepairSink = (*Manager)(nil)

// NewManager builds a Manager over sc. The caller wires it up with
// sc.SetRepairSink(m) and m.Start(); Attach does both.
func NewManager(sc *memkv.ShardedClient, cfg Config) *Manager {
	if cfg.ReplayInterval <= 0 {
		cfg.ReplayInterval = defaultReplayInterval
	}
	m := &Manager{
		sc:    sc,
		cfg:   cfg,
		stopC: make(chan struct{}),
	}
	m.hints.maxEntries = maxHintEntries
	m.hints.maxBytes = maxHintBytes
	return m
}

// Attach builds a Manager, installs it as sc's repair sink, and starts
// its replay loop. Close detaches and stops it.
func Attach(sc *memkv.ShardedClient, cfg Config) *Manager {
	m := NewManager(sc, cfg)
	sc.SetRepairSink(m)
	m.Start()
	return m
}

// Start launches the replay loop (idempotent).
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	m.wg.Add(1)
	go m.replayLoop()
}

// Close stops the replay loop and detaches the manager from its
// client's sink slot. Queued hints are abandoned.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	started := m.started
	m.mu.Unlock()
	m.sc.SetRepairSink(nil)
	close(m.stopC)
	if started {
		m.wg.Wait()
	}
	return nil
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats {
	pending, bytes, dropped, queued := m.hints.counters()
	return Stats{
		HintsQueued:        queued,
		HintsReplayed:      m.stReplayed.Load(),
		HintsDropped:       dropped,
		HintsExpired:       m.stHintsExpired.Load(),
		HintsPending:       pending,
		HintBytes:          bytes,
		DivergenceObserved: m.stDivergeObs.Load(),
		Rebalances:         m.stRebalances.Load(),
		KeysScanned:        m.stScanned.Load(),
		KeysMigrated:       m.stMigrated.Load(),
		MigrateStale:       m.stStale.Load(),
		MigrateExpired:     m.stMigExpired.Load(),
		MigrateErrs:        m.stMigErrs.Load(),
	}
}

// ---- memkv.RepairSink ----

// WriteMissed implements memkv.RepairSink: queue a hint for the owner
// that missed the write.
func (m *Manager) WriteMissed(key string, value []byte, version uint64, ttl time.Duration, owner string) {
	m.queue(key, value, version, ttl, owner)
}

// Divergence implements memkv.RepairSink: queue a hint carrying the
// newest value for each stale owner — read repair is hint replay.
func (m *Manager) Divergence(key string, value []byte, version uint64, ttlSecs uint32, staleOwners []string) {
	m.stDivergeObs.Add(1)
	m.queue(key, value, version, time.Duration(ttlSecs)*time.Second, staleOwners...)
}

// queue pushes one hint per owner. Non-blocking; the value is copied
// once and shared by the hints (the caller may reuse its slice), and the
// TTL is pinned to a deadline here, where the signal entered.
func (m *Manager) queue(key string, value []byte, version uint64, ttl time.Duration, owners ...string) {
	value = append([]byte(nil), value...)
	deadline := deadlineFromTTL(ttl)
	for _, owner := range owners {
		m.hints.push(&hint{key: key, value: value, version: version, deadline: deadline, owner: owner})
	}
}

// ---- background gating ----

var (
	errClosed  = errors.New("repair: manager closed")
	errExpired = errors.New("repair: value expired before push")
)

// waitBackground blocks until the governor affords a unit of background
// work (or immediately with no governor), polling with backgroundPause.
func (m *Manager) waitBackground(ctx context.Context) error {
	for {
		if m.cfg.Governor == nil || m.cfg.Governor.AllowBackground() {
			return nil
		}
		select {
		case <-time.After(backgroundPause):
		case <-ctx.Done():
			return ctx.Err()
		case <-m.stopC:
			return errClosed
		}
	}
}

// ---- hinted handoff ----

// hint is one version an owner is missing: push value@version to owner.
// The deadline is the absolute instant the write's TTL expires (zero =
// never): push recomputes the remaining TTL from it, so however long
// the hint waits, the key still dies when the original write said it
// would. Storing the TTL itself here was the drift bug: every replay
// hop restarted the clock.
type hint struct {
	key      string
	value    []byte
	version  uint64
	deadline time.Time
	owner    string
}

// deadlineFromTTL pins a relative TTL to the current wall clock
// (zero/negative TTL = no expiry = zero time).
func deadlineFromTTL(ttl time.Duration) time.Time {
	if ttl <= 0 {
		return time.Time{}
	}
	return time.Now().Add(ttl)
}

// ttlFromDeadline converts an absolute deadline back to a remaining
// TTL at use time. ok=false means the deadline has passed (or is so
// close that a 1-second wire round-up would extend the key's life):
// the work item should be dropped, not replayed.
func ttlFromDeadline(deadline time.Time) (ttl time.Duration, ok bool) {
	if deadline.IsZero() {
		return 0, true
	}
	left := time.Until(deadline)
	if left < time.Second {
		return 0, false
	}
	return left, true
}

func (h *hint) size() int { return len(h.key) + len(h.value) + len(h.owner) + 64 }

// hintQueue is the bounded FIFO of pending hints. One global FIFO keeps
// drop-oldest exact; replay groups by owner per pass.
type hintQueue struct {
	mu         sync.Mutex
	q          []*hint
	bytes      int
	maxEntries int
	maxBytes   int
	dropped    int64
	queued     int64
}

func (hq *hintQueue) push(h *hint) {
	sz := h.size()
	hq.mu.Lock()
	for len(hq.q) > 0 && (len(hq.q)+1 > hq.maxEntries || hq.bytes+sz > hq.maxBytes) {
		old := hq.q[0]
		hq.q = hq.q[1:]
		hq.bytes -= old.size()
		hq.dropped++
	}
	if 1 > hq.maxEntries || sz > hq.maxBytes {
		// A single hint larger than the whole budget is refused outright.
		hq.dropped++
		hq.mu.Unlock()
		return
	}
	hq.q = append(hq.q, h)
	hq.bytes += sz
	hq.queued++
	hq.mu.Unlock()
}

// snapshot returns the queued hints (shared pointers; hints are not
// mutated after enqueue).
func (hq *hintQueue) snapshot() []*hint {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	return append([]*hint(nil), hq.q...)
}

// remove deletes the given hints (by identity) from the queue.
func (hq *hintQueue) remove(done map[*hint]bool) {
	if len(done) == 0 {
		return
	}
	hq.mu.Lock()
	kept := hq.q[:0]
	for _, h := range hq.q {
		if done[h] {
			hq.bytes -= h.size()
			continue
		}
		kept = append(kept, h)
	}
	hq.q = kept
	hq.mu.Unlock()
}

func (hq *hintQueue) counters() (pending, bytes, dropped, queued int64) {
	hq.mu.Lock()
	defer hq.mu.Unlock()
	return int64(len(hq.q)), int64(hq.bytes), hq.dropped, hq.queued
}

// replayLoop drives hint replay at ReplayInterval, with per-owner
// exponential backoff between failed attempts.
func (m *Manager) replayLoop() {
	defer m.wg.Done()
	type ownerState struct {
		next  time.Time
		delay time.Duration
	}
	backoff := make(map[string]*ownerState)
	ticker := time.NewTicker(m.cfg.ReplayInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stopC:
			return
		case <-ticker.C:
		}
		hints := m.hints.snapshot()
		if len(hints) == 0 {
			continue
		}
		if err := m.waitBackground(context.Background()); err != nil {
			return
		}
		// Group by owner and replay owners whose backoff has elapsed.
		byOwner := make(map[string][]*hint)
		for _, h := range hints {
			byOwner[h.owner] = append(byOwner[h.owner], h)
		}
		now := time.Now()
		done := make(map[*hint]bool)
		for owner, hs := range byOwner {
			st := backoff[owner]
			if st == nil {
				st = &ownerState{delay: m.cfg.ReplayInterval}
				backoff[owner] = st
			}
			if now.Before(st.next) {
				continue
			}
			ok := m.replayOwner(owner, hs, done)
			if ok {
				st.delay = m.cfg.ReplayInterval
				st.next = time.Time{}
			} else {
				st.next = now.Add(st.delay)
				st.delay *= 2
				if st.delay > replayMaxBackoff {
					st.delay = replayMaxBackoff
				}
			}
		}
		m.hints.remove(done)
	}
}

// replayOwner pushes one owner's hints, marking in done each hint it
// retires: landed, or expired. Returns true if none failed (resetting the
// owner's backoff).
func (m *Manager) replayOwner(owner string, hs []*hint, done map[*hint]bool) bool {
	ok := true
	for i, r := range m.push(context.Background(), owner, hs) {
		switch {
		case errors.Is(r.Err, errExpired):
			m.stHintsExpired.Add(1)
		case r.Err != nil:
			ok = false
			continue
		default:
			// Applied or stale both mean the owner now holds >= version.
			m.stReplayed.Add(1)
		}
		done[hs[i]] = true
	}
	return ok
}

// push hands hs to owner and returns their outcomes in hs's order. It
// is the one way the manager writes a value to a shard: hint replay and
// migration both call it.
//
// A hint whose deadline has passed is not sent and reports errExpired:
// pushing a value past its deadline would resurrect a key the original
// writer already declared dead. The rest carry the remaining TTL. When
// owner is in the topology they go in PutVBatch rounds of batchSize; a
// round with an error ends the push, and the hints not yet sent report
// that error, so an owner that stalls costs one timeout, not one per
// round. When owner has left the topology the data still belongs
// somewhere: each hint is rerouted through the ring at its original
// version (LWW makes this safe even if the key has since been
// rewritten), and a nil error counts as applied.
func (m *Manager) push(ctx context.Context, owner string, hs []*hint) []memkv.PutVResult {
	res := make([]memkv.PutVResult, len(hs))
	vb := m.sc.VersionedShard(owner)
	var sent []int // indexes into hs of the puts, in order
	var puts []memkv.VersionedPut
	for i, h := range hs {
		ttl, live := ttlFromDeadline(h.deadline)
		switch {
		case !live:
			res[i].Err = errExpired
		case vb == nil:
			opCtx, cancel := context.WithTimeout(ctx, pushTimeout)
			err := m.sc.PutVersionAt(opCtx, h.key, h.value, ttl, h.version)
			cancel()
			res[i] = memkv.PutVResult{Applied: err == nil, Err: err}
		default:
			sent = append(sent, i)
			puts = append(puts, memkv.VersionedPut{Key: h.key, Value: h.value, TTL: ttl, Version: h.version})
		}
	}
	for start := 0; start < len(puts); start += batchSize {
		end := min(start+batchSize, len(puts))
		opCtx, cancel := context.WithTimeout(ctx, pushTimeout)
		var failed error
		for j, r := range vb.PutVBatch(opCtx, puts[start:end]) {
			res[sent[start+j]] = r
			if r.Err != nil {
				failed = r.Err
			}
		}
		cancel()
		if failed != nil {
			for _, i := range sent[end:] {
				res[i].Err = failed
			}
			break
		}
	}
	return res
}
