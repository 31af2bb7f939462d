package memkv

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// MuxClient.Scan at the pagination boundaries: a page that exactly
// consumes the keyspace must not claim more, a cursor past the end is
// an empty terminal page, non-positive and oversized limits clamp to
// the protocol cap, and the cap itself is enforced end to end.
func TestMuxScanPaginationBoundary(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	const n = 12
	puts := make([]VersionedPut, n)
	for i := range puts {
		puts[i] = VersionedPut{Key: fmt.Sprintf("pb-%02d", i), Value: []byte{byte(i)}, Version: uint64(100 + i)}
	}
	for i, r := range cl.PutVBatch(ctx, puts) {
		if r.Err != nil || !r.Applied {
			t.Fatalf("put %d: %+v", i, r)
		}
	}
	last := puts[n-1].Key

	// limit == keyspace: one full page, and more must be false — a
	// spurious true here would make pagination loops request an empty
	// page forever after.
	entries, more, err := cl.Scan(ctx, "", n)
	if err != nil || len(entries) != n || more {
		t.Fatalf("Scan(limit=%d) = %d entries, more=%v, err=%v; want exactly %d, more=false", n, len(entries), more, err, n)
	}

	// limit == keyspace-1: a full page with more=true, and the final
	// page holds the single remaining key with more=false.
	entries, more, err = cl.Scan(ctx, "", n-1)
	if err != nil || len(entries) != n-1 || !more {
		t.Fatalf("Scan(limit=%d) = %d entries, more=%v, err=%v; want %d, more=true", n-1, len(entries), more, err, n-1)
	}
	entries, more, err = cl.Scan(ctx, entries[len(entries)-1].Key, n-1)
	if err != nil || len(entries) != 1 || entries[0].Key != last || more {
		t.Fatalf("final page = %d entries (first %q), more=%v, err=%v; want just %q, more=false",
			len(entries), entries[0].Key, more, err, last)
	}

	// Cursor at (and past) the end: empty terminal pages.
	if entries, more, err = cl.Scan(ctx, last, 5); err != nil || len(entries) != 0 || more {
		t.Fatalf("Scan(after=last) = %d entries, more=%v, err=%v; want empty terminal page", len(entries), more, err)
	}
	if entries, more, err = cl.Scan(ctx, "zzz", 5); err != nil || len(entries) != 0 || more {
		t.Fatalf("Scan(after>last) = %d entries, more=%v, err=%v; want empty terminal page", len(entries), more, err)
	}

	// Non-positive limits clamp to the cap, not to zero.
	for _, lim := range []int{0, -3} {
		if entries, more, err = cl.Scan(ctx, "", lim); err != nil || len(entries) != n || more {
			t.Fatalf("Scan(limit=%d) = %d entries, more=%v, err=%v; want clamp to full keyspace", lim, len(entries), more, err)
		}
	}
}

// An oversized limit clamps to maxScanLimit on both sides of the wire:
// with maxScanLimit+4 keys stored, asking for far more returns exactly
// maxScanLimit entries and more=true.
func TestMuxScanLimitClamp(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	total := maxScanLimit + 4
	const batch = 512
	for start := 0; start < total; start += batch {
		end := start + batch
		if end > total {
			end = total
		}
		puts := make([]VersionedPut, 0, end-start)
		for i := start; i < end; i++ {
			puts = append(puts, VersionedPut{Key: fmt.Sprintf("cl-%05d", i), Value: []byte("v"), Version: uint64(100 + i)})
		}
		for i, r := range cl.PutVBatch(ctx, puts) {
			if r.Err != nil || !r.Applied {
				t.Fatalf("put %d: %+v", start+i, r)
			}
		}
	}

	entries, more, err := cl.Scan(ctx, "", total*2)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxScanLimit || !more {
		t.Fatalf("Scan(limit=%d) = %d entries, more=%v; want clamp to %d with more=true",
			total*2, len(entries), more, maxScanLimit)
	}
	entries, more, err = cl.Scan(ctx, entries[len(entries)-1].Key, total*2)
	if err != nil || len(entries) != 4 || more {
		t.Fatalf("page after clamp = %d entries, more=%v, err=%v; want the 4 remaining", len(entries), more, err)
	}
}

// ScanMerged produces one globally sorted, deduplicated page across
// shards: replicated copies collapse to a single entry, a divergent
// stale copy loses to the newest version, and cursor pagination walks
// the merged keyspace exactly once.
func TestShardedScanMerged(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 2})
	ctx := context.Background()

	const n = 25
	wantVer := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("sm-%03d", i)
		ver, err := sc.PutVersioned(ctx, key, []byte(key), 0)
		if err != nil {
			t.Fatal(err)
		}
		wantVer[key] = ver
	}
	// Plant a stale divergent copy of one key on a shard that is not
	// among its owners: the merge must prefer the newer owner copies.
	stale := "sm-000"
	owners := map[string]bool{}
	for _, o := range sc.Owners(stale) {
		owners[o] = true
	}
	for _, addr := range sc.ShardAddrs() {
		if !owners[addr] {
			if _, _, err := sc.VersionedShard(addr).PutV(ctx, stale, []byte("stale"), 0, 1); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	var keys []string
	after := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("merged pagination did not terminate")
		}
		entries, more, err := sc.ScanMerged(ctx, after, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 7 {
			t.Fatalf("page of %d exceeds limit", len(entries))
		}
		for i := range entries {
			e := &entries[i]
			if len(keys) > 0 && e.Key <= keys[len(keys)-1] {
				t.Fatalf("merged keys out of order: %q after %q", e.Key, keys[len(keys)-1])
			}
			if e.Version != wantVer[e.Key] {
				t.Fatalf("key %s merged at version %d, want %d (stale copy won?)", e.Key, e.Version, wantVer[e.Key])
			}
			keys = append(keys, e.Key)
			after = e.Key
		}
		if !more {
			break
		}
	}
	if len(keys) != n {
		t.Fatalf("merged scan saw %d keys, want %d distinct", len(keys), n)
	}
}

// WatchPrefix's resubscribe loop: kill one shard mid-watch, let the
// backoff loop spin against the dead address, restart the server on the
// same address, and prove the watch heals by itself — the restarted
// replica's stream comes back and its redundant copies are suppressed
// as duplicates again, while every event is still delivered exactly
// once throughout.
func TestPrefixWatchResubscribeBackoff(t *testing.T) {
	sc, servers := startShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()

	w, err := sc.WatchPrefix(ctx, "rs/", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	got := make(map[string]int)
	recv := func(why string) WatchEvent {
		t.Helper()
		select {
		case ev := <-w.Events():
			got[ev.Key]++
			if got[ev.Key] > 1 {
				t.Fatalf("%s: key %s delivered %d times", why, ev.Key, got[ev.Key])
			}
			return ev
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no event", why)
			return WatchEvent{}
		}
	}
	waitStats := func(why string, cond func(PrefixWatchStats) bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond(w.Stats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", why, w.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Both replicas live: an event arrives once and its second copy is
	// counted as a duplicate.
	if _, err := sc.PutVersioned(ctx, "rs/a", []byte("a"), 0); err != nil {
		t.Fatal(err)
	}
	recv("both replicas live")
	waitStats("duplicate from second replica", func(s PrefixWatchStats) bool { return s.Duplicates >= 1 })

	// Kill one replica. The dead stream ends (Resubscribes ticks) and
	// the loop begins backing off against the dead address; meanwhile
	// the survivor keeps the watch delivering.
	var downAddr string
	for addr, srv := range servers {
		downAddr = addr
		srv.Close()
		break
	}
	waitStats("stream loss recorded", func(s PrefixWatchStats) bool { return s.Resubscribes >= 1 })
	if _, err := sc.PutVersioned(ctx, "rs/b", []byte("b"), 0); err != nil {
		t.Fatal(err)
	}
	recv("one replica dark")

	// Restart on the same address. The backoff loop must re-establish
	// the subscription with no intervention: new events again produce a
	// suppressed duplicate from the recovered replica.
	srv2 := NewServer(nil)
	if _, err := srv2.Listen(downAddr); err != nil {
		t.Skipf("could not rebind %s: %v", downAddr, err)
	}
	defer srv2.Close()

	healed := false
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; !healed && time.Now().Before(deadline); i++ {
		before := w.Stats().Duplicates
		key := fmt.Sprintf("rs/probe-%03d", i)
		if _, err := sc.PutVersioned(ctx, key, []byte("p"), 0); err != nil {
			t.Fatal(err)
		}
		recv("probe during recovery")
		probeDeadline := time.Now().Add(250 * time.Millisecond)
		for time.Now().Before(probeDeadline) {
			if w.Stats().Duplicates > before {
				healed = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !healed {
		t.Fatalf("restarted replica never resumed delivering (stats %+v)", w.Stats())
	}
}
