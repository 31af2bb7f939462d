// Package repair is the convergence subsystem over the sharded memkv
// data plane: it makes the redundancy the paper's analysis assumes —
// every replica in a key's placement actually holds the data — true
// again after failures and topology changes, without putting that work
// on any caller's critical path.
//
// A Manager implements memkv.RepairSink and turns the three signals a
// ShardedClient emits into background convergence work:
//
//   - WriteMissed (a quorum write's copy failed) becomes a *hint*:
//     the missed write is queued and replayed against the intended
//     owner with per-owner exponential backoff until it lands —
//     Dynamo-style hinted handoff. The queue is bounded, in memory and
//     drops its oldest hint at either cap; a restart loses it. The
//     recovery is a full anti-entropy pass — RebalanceBetween from an
//     empty placement, or Drain of a shard — which re-pushes what the
//     shards hold to every owner.
//   - Divergence (a quorum read saw stale or missing copies) becomes a
//     *read repair*: the newest value is pushed to the stale copies
//     asynchronously.
//   - TopologyChanged (AddShard/RemoveShard) becomes an *anti-entropy
//     migration*: the Rebalance loop diffs the before/after placements
//     (ring.Placement.SameOwners), streams only remapped keys off each
//     shard with cursor-paged scans, and re-puts them at their new
//     owners in batches.
//
// All three traffic classes yield to foreground load: each unit of
// background work first asks the shared core.Governor's AllowBackground
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
	"redundancy/internal/ring"
)

// How every Manager paces and bounds its background work.
const (
	batchSize    = 64  // versioned puts per migration/replay batch
	scanPageSize = 256 // entries per anti-entropy scan page
	// maxHintEntries and maxHintBytes bound the hint queue: at either cap
	// the oldest hint is dropped (counted in Stats), so a long-dead owner
	// cannot OOM the process holding its hints.
	maxHintEntries        = 4096
	maxHintBytes          = 16 << 20
	defaultReplayInterval = 100 * time.Millisecond
	replayMaxBackoff      = 5 * time.Second // cap on an owner's replay backoff
	// backgroundPause is how long background work sleeps when the
	// governor defers it before asking again.
	backgroundPause = 10 * time.Millisecond
)

// Config configures a Manager. The zero value means no governor
// (background work always allowed), replay every 100 ms, and manual
// rebalancing.
type Config struct {
	// Governor, when set, gates every unit of background work (hint
	// replay batch, repair push, migration page) on AllowBackground —
	// share the governor that also measures foreground load, so
	// convergence traffic yields to it.
	Governor *core.Governor
	// ReplayInterval is the hint replay cadence and the initial
	// per-owner backoff (0 = 100 ms).
	ReplayInterval time.Duration
	// AutoRebalance runs Rebalance automatically whenever the client
	// reports a topology change.
	AutoRebalance bool
}

// Stats is a point-in-time view of a Manager's counters.
type Stats struct {
	// Hinted handoff.
	HintsQueued   int64 // hints accepted into the queue
	HintsReplayed int64 // hints that landed at their owner (or rerouted)
	HintsDropped  int64 // oldest-dropped at the entry/byte caps
	HintsExpired  int64 // hints discarded because their TTL deadline passed
	HintsPending  int64 // currently queued
	HintBytes     int64 // bytes currently queued
	// Read repair.
	DivergenceObserved int64 // Divergence reports received
	DivergenceDropped  int64 // reports dropped on a full repair queue
	RepairsPushed      int64 // stale copies successfully repaired
	RepairsFailed      int64 // repair pushes that errored
	RepairsExpired     int64 // repairs skipped because the value's deadline passed
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

	divergeC chan divergeItem

	topoMu      sync.Mutex
	topoPrev    ring.Placement
	topoCur     ring.Placement
	topoPending bool
	topoC       chan struct{}

	stopC   chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	started bool
	closed  bool

	stDivergeObs   atomic.Int64
	stDivergeDrop  atomic.Int64
	stRepairOK     atomic.Int64
	stRepairErr    atomic.Int64
	stRepairExp    atomic.Int64
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

// divergeItem is one queued read-repair unit. The TTL observed at
// report time is stored as an absolute deadline so the push — which may
// run arbitrarily later under the governor — re-derives the remaining
// TTL instead of re-applying the original and extending the key's life
// on every hop.
type divergeItem struct {
	key      string
	value    []byte
	version  uint64
	deadline time.Time // zero = no expiry
	owners   []string
}

// NewManager builds a Manager over sc. The caller wires it up with
// sc.SetRepairSink(m) and m.Start(); Attach does both.
func NewManager(sc *memkv.ShardedClient, cfg Config) *Manager {
	if cfg.ReplayInterval <= 0 {
		cfg.ReplayInterval = defaultReplayInterval
	}
	m := &Manager{
		sc:       sc,
		cfg:      cfg,
		divergeC: make(chan divergeItem, 1024),
		topoC:    make(chan struct{}, 1),
		stopC:    make(chan struct{}),
	}
	m.hints.maxEntries = maxHintEntries
	m.hints.maxBytes = maxHintBytes
	return m
}

// Attach builds a Manager, installs it as sc's repair sink, and starts
// its background loops. Close detaches and stops it.
func Attach(sc *memkv.ShardedClient, cfg Config) *Manager {
	m := NewManager(sc, cfg)
	sc.SetRepairSink(m)
	m.Start()
	return m
}

// Start launches the background loops (idempotent).
func (m *Manager) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started || m.closed {
		return
	}
	m.started = true
	m.wg.Add(2)
	go m.replayLoop()
	go m.repairLoop()
	if m.cfg.AutoRebalance {
		m.wg.Add(1)
		go m.rebalanceLoop()
	}
}

// Close stops the background loops and detaches the manager from its
// client's sink slot. Queued hints and repairs are abandoned.
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
		DivergenceDropped:  m.stDivergeDrop.Load(),
		RepairsPushed:      m.stRepairOK.Load(),
		RepairsFailed:      m.stRepairErr.Load(),
		RepairsExpired:     m.stRepairExp.Load(),
		Rebalances:         m.stRebalances.Load(),
		KeysScanned:        m.stScanned.Load(),
		KeysMigrated:       m.stMigrated.Load(),
		MigrateStale:       m.stStale.Load(),
		MigrateExpired:     m.stMigExpired.Load(),
		MigrateErrs:        m.stMigErrs.Load(),
	}
}

// ---- memkv.RepairSink ----

// WriteMissed implements memkv.RepairSink: queue a hint. Non-blocking;
// the value is copied (the caller may reuse its slice).
func (m *Manager) WriteMissed(key string, value []byte, version uint64, ttl time.Duration, owner string) {
	m.hints.push(&hint{
		key:      key,
		value:    append([]byte(nil), value...),
		version:  version,
		deadline: deadlineFromTTL(ttl),
		owner:    owner,
	})
}

// Divergence implements memkv.RepairSink: queue an async read repair.
// Non-blocking — on a full queue the report is dropped and counted (the
// next quorum read of the key will observe the divergence again).
func (m *Manager) Divergence(key string, value []byte, version uint64, ttlSecs uint32, staleOwners []string) {
	m.stDivergeObs.Add(1)
	it := divergeItem{
		key:      key,
		value:    append([]byte(nil), value...),
		version:  version,
		deadline: deadlineFromTTL(time.Duration(ttlSecs) * time.Second),
		owners:   append([]string(nil), staleOwners...),
	}
	select {
	case m.divergeC <- it:
	default:
		m.stDivergeDrop.Add(1)
	}
}

// TopologyChanged implements memkv.RepairSink: record the placement
// delta for the next Rebalance. Consecutive changes coalesce — the
// pending pair keeps the earliest prev and the latest cur, so one
// Rebalance converges a burst of membership churn.
func (m *Manager) TopologyChanged(prev, cur ring.Placement) {
	m.topoMu.Lock()
	if !m.topoPending {
		m.topoPrev = prev
		m.topoPending = true
	}
	m.topoCur = cur
	m.topoMu.Unlock()
	select {
	case m.topoC <- struct{}{}:
	default:
	}
}

// takeTopology consumes the pending placement delta, if any.
func (m *Manager) takeTopology() (prev, cur ring.Placement, ok bool) {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	if !m.topoPending {
		return ring.Placement{}, ring.Placement{}, false
	}
	m.topoPending = false
	return m.topoPrev, m.topoCur, true
}

// ---- background gating ----

var errClosed = errors.New("repair: manager closed")

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

// opCtx returns a bounded context for one background shard operation.
func (m *Manager) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 5*time.Second)
}

// ---- hinted handoff ----

// hint is one missed write: replay value@version to owner. The
// deadline is the absolute instant the write's TTL expires (zero =
// never): replay recomputes the remaining TTL from it, so however long
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

// replayOwner attempts one owner's hints in batches, marking in done
// each hint it retires: replayed, or expired. Returns true if the owner
// accepted them (resetting its backoff).
func (m *Manager) replayOwner(owner string, hs []*hint, done map[*hint]bool) bool {
	// Expired hints are dropped before any replay attempt: replaying a
	// value past its deadline would resurrect a key the original writer
	// already declared dead.
	live := hs[:0:0]
	for _, h := range hs {
		if _, ok := ttlFromDeadline(h.deadline); !ok {
			done[h] = true
			m.stHintsExpired.Add(1)
			continue
		}
		live = append(live, h)
	}
	hs = live
	if len(hs) == 0 {
		return true
	}
	vb := m.sc.VersionedShard(owner)
	if vb == nil {
		// The owner left the topology: the data still belongs somewhere.
		// Reroute each hint through the ring at its original version; LWW
		// makes this safe even if the key has since been rewritten.
		allOK := true
		for _, h := range hs {
			ttl, _ := ttlFromDeadline(h.deadline)
			ctx, cancel := m.opCtx()
			err := m.sc.PutVersionAt(ctx, h.key, h.value, ttl, h.version)
			cancel()
			if err != nil {
				allOK = false
				continue
			}
			m.finishHint(h, done)
		}
		return allOK
	}
	allOK := true
	for start := 0; start < len(hs); start += batchSize {
		end := min(start+batchSize, len(hs))
		batch := hs[start:end]
		puts := make([]memkv.VersionedPut, len(batch))
		for i, h := range batch {
			ttl, _ := ttlFromDeadline(h.deadline)
			puts[i] = memkv.VersionedPut{Key: h.key, Value: h.value, TTL: ttl, Version: h.version}
		}
		ctx, cancel := m.opCtx()
		res := vb.PutVBatch(ctx, puts)
		cancel()
		for i, r := range res {
			if r.Err != nil {
				allOK = false
				continue
			}
			// Applied or stale both mean the owner now holds >= version.
			m.finishHint(batch[i], done)
		}
		if !allOK {
			break
		}
	}
	return allOK
}

// finishHint marks a hint landed: count it, and mark it for removal
// from the queue.
func (m *Manager) finishHint(h *hint, done map[*hint]bool) {
	done[h] = true
	m.stReplayed.Add(1)
}

// ---- read repair ----

// repairLoop drains divergence reports and pushes the newest value to
// each stale copy, under the governor.
func (m *Manager) repairLoop() {
	defer m.wg.Done()
	for {
		var it divergeItem
		select {
		case <-m.stopC:
			return
		case it = <-m.divergeC:
		}
		if err := m.waitBackground(context.Background()); err != nil {
			return
		}
		// Remaining TTL at push time, not report time: a repair delayed by
		// the governor must not stretch the key's life, and one for an
		// already-dead value must not resurrect it.
		ttl, live := ttlFromDeadline(it.deadline)
		if !live {
			m.stRepairExp.Add(1)
			continue
		}
		for _, owner := range it.owners {
			vb := m.sc.VersionedShard(owner)
			if vb == nil {
				continue // owner left the topology; migration covers it
			}
			ctx, cancel := m.opCtx()
			_, _, err := vb.PutV(ctx, it.key, it.value, ttl, it.version)
			cancel()
			if err != nil {
				m.stRepairErr.Add(1)
			} else {
				m.stRepairOK.Add(1)
			}
		}
	}
}
