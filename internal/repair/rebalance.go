package repair

import (
	"context"
	"errors"
	"fmt"
	"time"

	"redundancy/internal/memkv"
	"redundancy/internal/ring"
)

// This file is the anti-entropy migrator: after AddShard/RemoveShard it
// walks every shard's keyspace with cursor-paged scans, diffs each
// key's owner set between the before and after placements, and re-puts
// only the remapped keys at their new owners in governed batches.
// Versioned LWW puts make the whole pass idempotent and safe under live
// writes: a migration put can never clobber a newer foreground write,
// it just loses (counted as stale).

// RebalanceStats summarizes one Rebalance or Drain pass.
type RebalanceStats struct {
	// KeysScanned is the entries examined.
	KeysScanned int64
	// KeysMigrated is the entries pushed to at least one owner.
	KeysMigrated int64
	// PutsApplied and PutsStale split the migration puts by outcome: a
	// stale put found the destination already holding a newer version.
	PutsApplied, PutsStale int64
	// PutsExpired counts entries whose TTL deadline passed between the
	// scan page that produced them and the flush that would have pushed
	// them — dead keys are dropped, not re-animated at the destination.
	PutsExpired int64
	// PutsFailed counts puts (and scan pages) that errored.
	PutsFailed int64
	// Elapsed is the pass's wall-clock duration.
	Elapsed time.Duration
}

// Rebalance converges a change of the shard set: every key whose owner
// set differs between prev and cur is streamed to its new owners. The
// caller that changed the set runs it, with the client's
// PlacementSnapshot from before and after the change; an empty prev
// makes it a full pass that re-pushes every key. Safe to run
// concurrently with live traffic; each scan page and put batch yields to
// the governor first.
func (m *Manager) Rebalance(ctx context.Context, prev, cur ring.Placement) (RebalanceStats, error) {
	start := time.Now()
	var st RebalanceStats
	var firstErr error
	for _, src := range cur.Names() {
		vb := m.sc.VersionedShard(src)
		if vb == nil {
			continue // removed since cur was taken: nothing to scan here
		}
		if err := m.migrateFrom(ctx, src, vb, prev, cur, true, &st); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	st.Elapsed = time.Since(start)
	m.stRebalances.Add(1)
	m.stScanned.Add(st.KeysScanned)
	m.stMigrated.Add(st.KeysMigrated)
	m.stStale.Add(st.PutsStale)
	m.stMigExpired.Add(st.PutsExpired)
	m.stMigErrs.Add(st.PutsFailed)
	return st, firstErr
}

// Drain streams every key off src to its owners under the current
// placement — the exit path for a shard that was just removed from the
// topology but is still reachable (src is the removed shard's backend,
// which the client no longer routes to). Unlike Rebalance it does not
// diff placements: every key on src is pushed.
func (m *Manager) Drain(ctx context.Context, src memkv.Backend) (RebalanceStats, error) {
	start := time.Now()
	var st RebalanceStats
	cur := m.sc.PlacementSnapshot()
	err := m.migrateFrom(ctx, src.Addr(), src, ring.Placement{}, cur, false, &st)
	st.Elapsed = time.Since(start)
	m.stScanned.Add(st.KeysScanned)
	m.stMigrated.Add(st.KeysMigrated)
	m.stStale.Add(st.PutsStale)
	m.stMigExpired.Add(st.PutsExpired)
	m.stMigErrs.Add(st.PutsFailed)
	return st, err
}

// migrateFrom scans src page by page and pushes remapped keys to their
// owners under cur. With diff true, keys whose owner set is identical
// under prev and cur are skipped — the remap diff; with diff false
// every key is pushed (Drain). The source keeps every key it held.
func (m *Manager) migrateFrom(ctx context.Context, srcAddr string, src memkv.Backend, prev, cur ring.Placement, diff bool, st *RebalanceStats) error {
	// Each remapped entry becomes a hint for each new owner. Its deadline
	// pins the remaining TTL the scan reported at page time to the wall
	// clock, so a flush the governor delayed re-derives what is left
	// instead of stretching the key's life by the scan-to-flush gap, and
	// drops an entry that expired in between rather than re-animate it.
	batches := make(map[string][]*hint)
	ownerScratch := make([]string, cur.Replication())

	flush := func() {
		for owner, hs := range batches {
			for _, r := range m.push(ctx, owner, hs) {
				switch {
				case errors.Is(r.Err, errExpired):
					st.PutsExpired++
				case r.Err != nil:
					st.PutsFailed++
				case r.Applied:
					st.PutsApplied++
				default:
					st.PutsStale++
				}
			}
		}
		clear(batches)
	}

	cursor := ""
	for {
		if err := m.waitBackground(ctx); err != nil {
			return err
		}
		entries, more, err := src.Scan(ctx, cursor, scanPageSize)
		if err != nil {
			st.PutsFailed++
			return fmt.Errorf("repair: scan %s: %w", srcAddr, err)
		}
		if len(entries) == 0 {
			break
		}
		pageTime := time.Now()
		batched := 0
		for i := range entries {
			e := &entries[i]
			cursor = e.Key
			st.KeysScanned++
			if diff && prev.SameOwners(cur, e.Key) {
				continue
			}
			n := cur.OwnersInto(e.Key, ownerScratch)
			pushed := false
			for _, o := range ownerScratch[:n] {
				if o == srcAddr {
					continue
				}
				var deadline time.Time
				if e.TTLSecs > 0 {
					deadline = pageTime.Add(time.Duration(e.TTLSecs) * time.Second)
				}
				batches[o] = append(batches[o], &hint{key: e.Key, value: e.Value, version: e.Version, deadline: deadline, owner: o})
				pushed = true
			}
			if pushed {
				st.KeysMigrated++
			}
			batched++
			if batched >= batchSize {
				flush()
				batched = 0
			}
		}
		flush()
		if !more {
			break
		}
	}
	return nil
}
