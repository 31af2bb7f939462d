package repair

import (
	"context"
	"errors"
	"testing"
	"time"

	"redundancy/internal/memkv"
)

// The TTL-drift fix in this package: hints and divergence reports carry
// an absolute expiry deadline pinned where the signal entered, and every
// replay/repair re-derives the remaining TTL from it — work for a value
// that has since died is dropped, never replayed with a restarted clock.

func TestDeadlineHelpers(t *testing.T) {
	if d := deadlineFromTTL(0); !d.IsZero() {
		t.Fatalf("deadlineFromTTL(0) = %v, want zero", d)
	}
	if _, ok := ttlFromDeadline(time.Time{}); !ok {
		t.Fatal("zero deadline (no expiry) must be ok")
	}
	if _, ok := ttlFromDeadline(time.Now().Add(-time.Second)); ok {
		t.Fatal("past deadline must not be ok")
	}
	// Inside the final second: replaying would round up on the wire and
	// extend the key's life, so it counts as expired.
	if _, ok := ttlFromDeadline(time.Now().Add(500 * time.Millisecond)); ok {
		t.Fatal("sub-second deadline must not be ok")
	}
	ttl, ok := ttlFromDeadline(deadlineFromTTL(5 * time.Second))
	if !ok || ttl <= 4*time.Second || ttl > 5*time.Second {
		t.Fatalf("round trip = (%v, %v), want ~5s", ttl, ok)
	}
}

// A hint whose value expires before replay is dropped — counted, purged
// from the queue, never installed at the owner.
func TestExpiredHintDroppedAtReplay(t *testing.T) {
	sc, _ := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	owner := sc.ShardAddrs()[0]
	ver := sc.NextVersion()
	// 700ms of life is inside the final-second window by the time any
	// replay tick runs: the hint must expire, not hand off.
	m.WriteMissed("dead-on-arrival", []byte("ghost"), ver, 700*time.Millisecond, owner)

	// The expiry counter ticks inside the replay pass; queue removal is
	// the pass's final step — wait for both.
	waitFor(t, 5*time.Second, "hint expired and purged", func() bool {
		st := m.Stats()
		return st.HintsExpired >= 1 && st.HintsPending == 0
	})
	if st := m.Stats(); st.HintsReplayed != 0 {
		t.Errorf("HintsReplayed = %d, want 0 (value was dead)", st.HintsReplayed)
	}
	if _, _, _, err := sc.VersionedShard(owner).GetV(ctx, "dead-on-arrival"); !errors.Is(err, memkv.ErrNotFound) {
		t.Errorf("expired hint landed at owner: %v", err)
	}
}

// A replayed hint installs the REMAINING TTL from its pinned deadline,
// not the TTL the original write carried — the stale-TTL replay bug.
func TestHintReplayAppliesRemainingTTL(t *testing.T) {
	sc, _ := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := NewManager(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	owner := sc.ShardAddrs()[0]
	ver := sc.NextVersion()
	// Simulate a hint that sat in the queue: the original write had a
	// long TTL, but by now only ~3s of it remain.
	m.hints.push(&hint{
		key:      "remnant",
		value:    []byte("v"),
		version:  ver,
		deadline: time.Now().Add(3 * time.Second),
		owner:    owner,
	})
	m.Start()

	waitFor(t, 5*time.Second, "hint replayed", func() bool {
		return m.Stats().HintsReplayed >= 1
	})
	_, v, ttlSecs, err := sc.VersionedShard(owner).GetV(ctx, "remnant")
	if err != nil || v != ver {
		t.Fatalf("GetV = (v%d, %v), want v%d", v, err, ver)
	}
	if ttlSecs == 0 || ttlSecs > 3 {
		t.Fatalf("installed TTL = %ds, want 1..3 (remaining, not original)", ttlSecs)
	}
}

// A divergence report whose value died before the repair push runs is
// skipped — read repair must not resurrect an expired key.
func TestExpiredDivergenceNotRepaired(t *testing.T) {
	sc, _ := startCluster(t, 2, memkv.ShardedConfig{Replication: 1, WriteQuorum: 1})
	m := Attach(sc, fastConfig())
	defer m.Close()
	ctx := context.Background()

	owner := sc.ShardAddrs()[0]
	ver := sc.NextVersion()
	// 1s of observed TTL is inside the final-second window by push time.
	m.Divergence("fading", []byte("ghost"), ver, 1, []string{owner})

	waitFor(t, 5*time.Second, "repair skipped as expired", func() bool {
		return m.Stats().HintsExpired >= 1
	})
	if st := m.Stats(); st.HintsReplayed != 0 {
		t.Errorf("HintsReplayed = %d, want 0", st.HintsReplayed)
	}
	if _, _, _, err := sc.VersionedShard(owner).GetV(ctx, "fading"); !errors.Is(err, memkv.ErrNotFound) {
		t.Errorf("expired repair landed: %v", err)
	}
}
