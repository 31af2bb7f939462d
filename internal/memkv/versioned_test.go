package memkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"redundancy/internal/core"
)

// ---- Store versioning ----

func TestStoreVersionsMonotonic(t *testing.T) {
	s := NewStore()
	s.Set("k", 0, []byte("one"))
	_, _, v1, _, ok := s.GetVersion("k")
	if !ok || v1 == 0 {
		t.Fatalf("first write version = %d, ok=%v", v1, ok)
	}
	s.Set("k", 0, []byte("two"))
	_, _, v2, _, _ := s.GetVersion("k")
	if v2 <= v1 {
		t.Fatalf("second write version %d not greater than first %d", v2, v1)
	}
}

func TestStorePutVersionLWW(t *testing.T) {
	s := NewStore()
	if cur, applied := s.PutVersion("k", 0, []byte("new"), 0, 100); !applied || cur != 100 {
		t.Fatalf("put on absent key: applied=%v cur=%d", applied, cur)
	}
	// A stale replay must lose and report the resident version.
	if cur, applied := s.PutVersion("k", 0, []byte("old"), 0, 50); applied || cur != 100 {
		t.Fatalf("stale put: applied=%v cur=%d, want refused at 100", applied, cur)
	}
	// Equal version is not strictly newer: refused (idempotent replay).
	if _, applied := s.PutVersion("k", 0, []byte("dup"), 0, 100); applied {
		t.Fatal("equal-version put applied; want refused")
	}
	if cur, applied := s.PutVersion("k", 0, []byte("newest"), 0, 101); !applied || cur != 101 {
		t.Fatalf("newer put: applied=%v cur=%d", applied, cur)
	}
	v, _, ok := s.Get("k")
	if !ok || string(v) != "newest" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

// TestStorePutVersionRefusesVersionZero: version 0 is what a
// create-only CompareAndSwap expects of an absent key, so no write may
// store it — else that CAS overwrites a value it takes for absent.
func TestStorePutVersionRefusesVersionZero(t *testing.T) {
	s := NewStore()
	if cur, applied := s.PutVersion("k", 0, []byte("first"), 0, 0); applied || cur != 0 {
		t.Fatalf("PutVersion at version 0 of an absent key = (%d, %v), want (0, false)", cur, applied)
	}
	if v, _, ok := s.Get("k"); ok {
		t.Fatalf("a refused version-0 write was stored: %q", v)
	}
	held, applied := s.CompareAndSwap("k", 0, []byte("second"), 0, 0)
	if !applied {
		t.Fatalf("a create-only CAS of an absent key did not apply (held %d)", held)
	}
	if cur, applied := s.PutVersion("k", 0, []byte("third"), 0, 0); applied || cur != held {
		t.Fatalf("PutVersion at version 0 of a key at %d = (%d, %v), want (%d, false)", held, cur, applied, held)
	}
	if v, _, _ := s.Get("k"); string(v) != "second" {
		t.Fatalf("Get = %q, want the CAS's %q", v, "second")
	}
}

// stored returns key's item as the store holds it, expired or not — the
// store's own bytes, for a test to inspect and not to keep.
func stored(s *Store, key string) (item, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	it, ok := sh.m[key]
	return it, ok
}

// keyStream reads as its key over and over, whole copies only, so a
// bufio.Reader over it holds the key at the front after every read of
// one key's length.
type keyStream string

func (k keyStream) Read(p []byte) (int, error) {
	n := len(p) / len(k) * len(k)
	for i := 0; i < n; i += len(k) {
		copy(p[i:], k)
	}
	return n, nil
}

// TestParkedReadBorrowsTheStoredKey: a read that outlives the reader's
// window — a delayed GETV, parked — takes the store's own string for a
// key the store holds, as a write does, so making its key allocates
// nothing.
func TestParkedReadBorrowsTheStoredKey(t *testing.T) {
	s := NewStore()
	const key = "key-000042"
	s.PutVersion(key, 0, []byte("v"), 0, 1)
	r := bufio.NewReader(keyStream(key))
	var q frame
	avg := testing.AllocsPerRun(100, func() {
		kb, err := r.Peek(len(key))
		if err != nil {
			t.Fatal(err)
		}
		q = frame{op: opGetV}
		if err := readRequestRest(r, &q, kb, 0, s); err != nil {
			t.Fatal(err)
		}
	})
	held, _ := stored(s, key)
	if q.key != key || unsafe.StringData(q.key) != unsafe.StringData(held.key) {
		t.Errorf("parked read's key %q, want the stored item's own %q", q.key, held.key)
	}
	if avg != 0 {
		t.Errorf("reading a parked read's key allocates %.2f, want 0", avg)
	}
}

// TestStoreKeyStringLendsThePresentKey: a write to a key the store holds
// is handed the store's own string for it — after whichever write path
// stored it last — and a key it does not hold gets a string of its own;
// neither aliases the bytes it was looked up by.
func TestStoreKeyStringLendsThePresentKey(t *testing.T) {
	s := NewStore()
	const key = "key-000042"
	writes := []struct {
		name  string
		write func()
	}{
		{"SetTTL", func() { s.SetTTL(key, 0, []byte("a"), time.Minute) }},
		{"PutVersion", func() { s.PutVersion(key, 0, []byte("b"), 0, ^uint64(0)>>1) }},
		{"CompareAndSwap", func() {
			_, _, ver, _, _ := s.GetVersion(key)
			if _, ok := s.CompareAndSwap(key, 0, []byte("c"), 0, ver); !ok {
				t.Fatal("CAS at the current version did not apply")
			}
		}},
	}
	for _, w := range writes {
		w.write()
		kb := []byte(key)
		got := s.keyString(kb)
		held, _ := stored(s, key)
		if got != key || unsafe.StringData(got) != unsafe.StringData(held.key) {
			t.Fatalf("after %s: keyString = %q, want the stored item's own %q", w.name, got, held.key)
		}
		kb[0] = 'X' // the reader's window moves on
		if got != key {
			t.Fatalf("after %s: the lent key aliases the lookup bytes", w.name)
		}
	}
	kb := []byte("absent")
	got := s.keyString(kb)
	kb[0] = 'X'
	if got != "absent" {
		t.Errorf("keyString of an absent key = %q, want a string of its own", got)
	}
	// A key reaped at its expiry after it was lent is written back under
	// the lent string.
	lent := s.keyString([]byte(key))
	s.PutVersion(key, 0, []byte("brief"), time.Nanosecond, ^uint64(0)-1)
	time.Sleep(time.Millisecond)
	if _, _, ok := s.Get(key); ok {
		t.Fatal("the key outlived its nanosecond TTL")
	}
	if _, held := stored(s, key); held {
		t.Fatal("the expired key was not reaped")
	}
	putVersion(s, lent, 0, []byte("d"), 0, ^uint64(0), true)
	if v, _, ok := s.Get(key); !ok || string(v) != "d" {
		t.Errorf("re-put under a lent key after its expiry: (%q, %v)", v, ok)
	}
}

// The witness rule: after applying a replicated write at version V, a
// local write must mint a version strictly greater than V, even if V is
// far ahead of this store's clock.
func TestStoreWitnessAdvancesClock(t *testing.T) {
	s := NewStore()
	future := uint64(time.Now().Add(time.Hour).UnixNano())
	s.PutVersion("remote", 0, []byte("x"), 0, future)
	s.Set("local", 0, []byte("y"))
	_, _, v, _, _ := s.GetVersion("local")
	if v <= future {
		t.Fatalf("local write version %d did not advance past witnessed %d", v, future)
	}
}

// TestStoreSetTTLNeverRewindsVersion: SetTTL mints its version before it
// takes the key's shard lock, so a PutVersion at a higher version can
// land in between — and the SetTTL must then lose to it, not overwrite
// it with the lower version. Here PutVersions at versions far ahead of
// the store's clock, each above the last, race SetTTLs on one key: the
// watcher sees the key's versions only increase, and the store ends at
// the largest of them.
func TestStoreSetTTLNeverRewindsVersion(t *testing.T) {
	s := NewStore()
	const key, writers, rounds = "rewind", 4, 2000
	w := s.Watch(key, maxWatchBuffer)
	defer w.Close()
	var next atomic.Uint64
	next.Store(uint64(time.Now().Add(time.Hour).UnixNano()))
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// A step no run of SetTTL ticks in between can cover.
				s.PutVersion(key, 0, []byte("put"), 0, next.Add(1<<20))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.SetTTL(key, 0, []byte("set"), time.Minute)
			}
		}()
	}
	wg.Wait()

	// Every event was sent under the key's lock before its write returned.
	var last uint64
	for drained := false; !drained; {
		select {
		case ev := <-w.Events():
			if ev.Version <= last {
				t.Fatalf("event at version %d after %d: the key's version moved backwards", ev.Version, last)
			}
			last = ev.Version
		default:
			drained = true
		}
	}
	if err := w.Err(); err != nil {
		t.Fatalf("watcher ended: %v", err)
	}
	_, _, stored, _, _ := s.GetVersion(key)
	if stored != last || stored < next.Load() {
		t.Fatalf("stored version %d, want the last applied %d, at least the largest put %d", stored, last, next.Load())
	}
}

func TestStoreScanPages(t *testing.T) {
	s := NewStore()
	want := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		k := fmt.Sprintf("scan-%02d", i)
		s.Set(k, uint32(i), []byte(k))
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	cursor := ""
	pages := 0
	for {
		entries, more := s.Scan(cursor, 7)
		for i := range entries {
			e := &entries[i]
			got = append(got, e.Key)
			cursor = e.Key
			if e.Version == 0 {
				t.Fatalf("entry %q has version 0", e.Key)
			}
			if !bytes.Equal(e.Value, []byte(e.Key)) {
				t.Fatalf("entry %q value %q", e.Key, e.Value)
			}
		}
		pages++
		if !more {
			break
		}
		if len(entries) > 7 {
			t.Fatalf("page of %d entries exceeds limit 7", len(entries))
		}
	}
	if pages < 5 {
		t.Fatalf("scan used %d pages for 30 keys at limit 7", pages)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatal("scan keys not in ascending order")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan saw %d keys, want %d", len(got), len(want))
	}
}

// ---- versioned payload and scan-entry codecs ----

func TestVerPayloadRoundTrip(t *testing.T) {
	enc := appendVerPayload(nil, 42, 7, []byte("payload"))
	ver, ttl, data, err := decodeVerPayload(enc)
	if err != nil || ver != 42 || ttl != 7 || string(data) != "payload" {
		t.Fatalf("decode = (%d, %d, %q, %v)", ver, ttl, data, err)
	}
	if _, _, _, err := decodeVerPayload(enc[:verPayloadHeader-1]); !errors.Is(err, errVerPayload) {
		t.Fatalf("short payload decode err = %v", err)
	}
}

func TestScanEntryRoundTrip(t *testing.T) {
	in := []ScanEntry{
		{Key: "a", Flags: 1, Version: 10, TTLSecs: 0, Value: []byte("va")},
		{Key: "bb", Flags: 0, Version: 11, TTLSecs: 30, Value: nil},
		{Key: "ccc", Flags: 9, Version: 12, TTLSecs: 1, Value: bytes.Repeat([]byte{'x'}, 100)},
	}
	var enc []byte
	for i := range in {
		enc = appendScanEntry(enc, &in[i])
	}
	out, err := decodeScanEntries(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || out[i].Flags != in[i].Flags ||
			out[i].Version != in[i].Version || out[i].TTLSecs != in[i].TTLSecs ||
			!bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("entry %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	if _, err := decodeScanEntries(enc[:len(enc)-1]); !errors.Is(err, errScanEntry) {
		t.Fatalf("truncated entries decode err = %v", err)
	}
}

// ---- MuxClient versioned operations over a live server ----

func TestMuxVersionedOps(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	cur, applied, err := cl.PutV(ctx, "vk", []byte("v1"), 0, 100)
	if err != nil || !applied || cur != 100 {
		t.Fatalf("PutV = (%d, %v, %v)", cur, applied, err)
	}
	val, ver, ttl, err := cl.GetV(ctx, "vk")
	if err != nil || string(val) != "v1" || ver != 100 || ttl != 0 {
		t.Fatalf("GetV = (%q, %d, %d, %v)", val, ver, ttl, err)
	}
	// Stale put refused server-side, current version reported back.
	cur, applied, err = cl.PutV(ctx, "vk", []byte("old"), 0, 99)
	if err != nil || applied || cur != 100 {
		t.Fatalf("stale PutV = (%d, %v, %v)", cur, applied, err)
	}
	if _, _, _, err := cl.GetV(ctx, "absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetV(absent) = %v, want ErrNotFound", err)
	}

	// TTL survives the versioned round trip.
	if _, _, err := cl.PutV(ctx, "vt", []byte("x"), time.Minute, 200); err != nil {
		t.Fatal(err)
	}
	if _, _, ttl, err := cl.GetV(ctx, "vt"); err != nil || ttl == 0 || ttl > 60 {
		t.Fatalf("GetV ttl = %d, %v; want (0, 60]", ttl, err)
	}
}

func TestMuxPutVBatchAndScan(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()
	puts := make([]VersionedPut, 20)
	for i := range puts {
		puts[i] = VersionedPut{Key: fmt.Sprintf("b-%02d", i), Value: []byte{byte(i)}, Version: uint64(1000 + i)}
	}
	for i, r := range cl.PutVBatch(ctx, puts) {
		if r.Err != nil || !r.Applied || r.Current != puts[i].Version {
			t.Fatalf("batch put %d = %+v", i, r)
		}
	}
	// Replaying the batch is refused entry by entry but not an error.
	for i, r := range cl.PutVBatch(ctx, puts) {
		if r.Err != nil || r.Applied {
			t.Fatalf("replayed batch put %d = %+v, want refused", i, r)
		}
	}
	var seen []string
	cursor := ""
	for {
		entries, more, err := cl.Scan(ctx, cursor, 6)
		if err != nil {
			t.Fatal(err)
		}
		for i := range entries {
			seen = append(seen, entries[i].Key)
			cursor = entries[i].Key
		}
		if !more {
			break
		}
	}
	if len(seen) != len(puts) || !sort.StringsAreSorted(seen) {
		t.Fatalf("scan saw %d sorted=%v, want %d in order", len(seen), sort.StringsAreSorted(seen), len(puts))
	}
}

// batchPuts returns n versioned puts of distinct keys.
func batchPuts(prefix string, n int) []VersionedPut {
	puts := make([]VersionedPut, n)
	for i := range puts {
		puts[i] = VersionedPut{Key: fmt.Sprintf("%s-%d", prefix, i), Value: []byte{byte(i)}, Version: uint64(100 + i)}
	}
	return puts
}

// awaitStored polls cl until key holds version, failing the test after
// two seconds: the request that follows a late, skipped reply.
func awaitStored(t *testing.T, cl *MuxClient, key string, version uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, v, _, err := cl.GetV(context.Background(), key)
		if err == nil && v == version {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("GetV(%s) = version %d, %v; want %d", key, v, err, version)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxPutVBatchCancelWithdrawsOutstanding: a caller that gives up in
// the middle of a batch keeps the puts already answered and gets
// context.Canceled for the rest, which are withdrawn — no tag stays
// registered. The connection survives their late replies and serves the
// next request.
func TestMuxPutVBatchCancelWithdrawsOutstanding(t *testing.T) {
	const n, fast = 8, 4
	var seen atomic.Int64
	srv, addr := startServerDelay(t, func() time.Duration {
		if i := seen.Add(1); i > fast && i <= n {
			return 300 * time.Millisecond
		}
		return 0
	})
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	puts := batchPuts("cb", n)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	for i, r := range cl.PutVBatch(ctx, puts) {
		if i < fast && (r.Err != nil || !r.Applied) {
			t.Errorf("put %d answered before the cancel = %+v, want applied", i, r)
		}
		if i >= fast && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("put %d outstanding at the cancel = %+v, want context.Canceled", i, r)
		}
	}
	if n := pendingTags(cl); n != 0 {
		t.Fatalf("%d tags still registered after the cancelled batch", n)
	}
	// The server applies the withdrawn puts all the same (a request is not
	// recalled); reading the last one back means its reply came and went.
	awaitStored(t, cl, puts[n-1].Key, puts[n-1].Version)
	if got := srv.AcceptedConns(); got != 1 {
		t.Errorf("server accepted %d connections, want 1 (the connection must survive)", got)
	}
}

// TestMuxPutVBatchStalledPutTimesOutAlone: every put of a batch has its
// own timeout, so the one whose reply is stalled past it fails alone
// with ErrMuxTimeout while the others apply, and its late reply does
// not harm the connection.
func TestMuxPutVBatchStalledPutTimesOutAlone(t *testing.T) {
	const n, stalled = 6, 2
	var seen atomic.Int64
	srv, addr := startServerDelay(t, func() time.Duration {
		if seen.Add(1) == stalled+1 {
			return 400 * time.Millisecond
		}
		return 0
	})
	cl := NewMuxClient(addr, 100*time.Millisecond)
	defer cl.Close()
	puts := batchPuts("sb", n)

	for i, r := range cl.PutVBatch(context.Background(), puts) {
		if i == stalled && !errors.Is(r.Err, ErrMuxTimeout) {
			t.Errorf("stalled put %d = %+v, want ErrMuxTimeout", i, r)
		}
		if i != stalled && (r.Err != nil || !r.Applied || r.Current != puts[i].Version) {
			t.Errorf("put %d = %+v, want applied at %d", i, r, puts[i].Version)
		}
	}
	if n := pendingTags(cl); n != 0 {
		t.Fatalf("%d tags still registered after the batch", n)
	}
	awaitStored(t, cl, puts[stalled].Key, puts[stalled].Version)
	if got := srv.AcceptedConns(); got != 1 {
		t.Errorf("server accepted %d connections, want 1 (the connection must survive)", got)
	}
}

// ---- ShardedClient versioned quorum surface ----

// recordingSink captures RepairSink callbacks for assertions.
type recordingSink struct {
	mu       sync.Mutex
	missed   []string // "key@owner"
	diverged []string // "key:staleOwner"
}

func (r *recordingSink) WriteMissed(key string, _ []byte, _ uint64, _ time.Duration, owner string) {
	r.mu.Lock()
	r.missed = append(r.missed, key+"@"+owner)
	r.mu.Unlock()
}

func (r *recordingSink) Divergence(key string, _ []byte, _ uint64, _ uint32, staleOwners []string) {
	r.mu.Lock()
	for _, o := range staleOwners {
		r.diverged = append(r.diverged, key+":"+o)
	}
	r.mu.Unlock()
}

func TestShardedPutVersionedGetQuorum(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 2})
	ctx := context.Background()
	ver, err := sc.PutVersioned(ctx, "qk", []byte("quorum"), 0)
	if err != nil || ver == 0 {
		t.Fatalf("PutVersioned = (%d, %v)", ver, err)
	}
	res, err := sc.GetResult(ctx, "qk", core.WithQuorum(2))
	if val, got := res.Value.Value, res.Value.Version; err != nil || string(val) != "quorum" || got != ver {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want version %d", val, got, err, ver)
	}
	if _, err := sc.GetResult(ctx, "absent", core.WithQuorum(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("quorum GetResult(absent) = %v, want ErrNotFound", err)
	}
	// Both placement copies must hold the value at the minted version —
	// PutVersioned does not stop at the quorum.
	for _, owner := range sc.Owners("qk") {
		vb := sc.VersionedShard(owner)
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, v, _, err := vb.GetV(ctx, "qk")
			if err == nil && v == ver {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("owner %s: version %d, err %v; want %d", owner, v, err, ver)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestShardedQuorumGetIsTheConsistencyRead: WithQuorum makes a read
// compare versions. With one owner left at an older version and the
// fresh owner held back, so that the stale bytes answer first, a 2-of-2
// read still returns the newest version and reports the stale owner for
// read repair.
func TestShardedQuorumGetIsTheConsistencyRead(t *testing.T) {
	var hold [2]atomic.Bool
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2}, 5*time.Second,
		func(i int) func() time.Duration {
			return func() time.Duration {
				if hold[i].Load() {
					return 100 * time.Millisecond
				}
				return 0
			}
		})
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "qk", []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	const fresh, stale = 0, 1
	newVer := sc.NextVersion()
	if _, applied, err := muxes[fresh].PutV(ctx, "qk", []byte("new"), 0, newVer); err != nil || !applied {
		t.Fatalf("PutV to the fresh owner = (applied %v, %v)", applied, err)
	}
	hold[fresh].Store(true)

	if v, err := sc.Get(ctx, "qk", core.WithQuorum(2)); err != nil || string(v) != "new" {
		t.Fatalf("Get(WithQuorum(2)) = (%q, %v), want the fresh owner's \"new\"", v, err)
	}
	sink := &recordingSink{}
	sc.SetRepairSink(sink)
	res, err := sc.GetResult(ctx, "qk", core.WithQuorum(2))
	if err != nil || string(res.Value.Value) != "new" || res.Value.Version != newVer {
		t.Fatalf("GetResult(WithQuorum(2)) = (%q, %d, %v), want \"new\" at %d", res.Value.Value, res.Value.Version, err, newVer)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if want := "qk:" + muxes[stale].Addr(); len(sink.diverged) != 1 || sink.diverged[0] != want {
		t.Errorf("divergence reported = %v, want [%s]", sink.diverged, want)
	}
}

// TestShardedPutVersionedOneVersionOnEveryOwner: one write is one version
// on every owner, so a quorum read of all of them finds no copy stale
// and reports no divergence — there is no read repair of identical
// bytes.
func TestShardedPutVersionedOneVersionOnEveryOwner(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{Replication: 3})
	ctx := context.Background()
	sink := &recordingSink{}
	sc.SetRepairSink(sink)
	ver, err := sc.PutVersioned(ctx, "one", []byte("v"), 0)
	if err != nil {
		t.Fatal(err)
	}
	owners := sc.Owners("one")
	if len(owners) != 3 {
		t.Fatalf("Owners = %v, want all 3 shards", owners)
	}
	for _, owner := range owners {
		if _, v, _, err := sc.VersionedShard(owner).GetV(ctx, "one"); err != nil || v != ver {
			t.Errorf("owner %s holds version %d (%v), want %d", owner, v, err, ver)
		}
	}
	if res, err := sc.GetResult(ctx, "one", core.WithQuorum(3)); err != nil || string(res.Value.Value) != "v" || res.Value.Version != ver {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want (v, %d)", res.Value.Value, res.Value.Version, err, ver)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.diverged) != 0 || len(sink.missed) != 0 {
		t.Errorf("sink saw divergence %v and missed writes %v, want none", sink.diverged, sink.missed)
	}
}

func TestGetQuorumReportsDivergence(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 2})
	ctx := context.Background()
	sink := &recordingSink{}
	sc.SetRepairSink(sink)

	if _, err := sc.PutVersioned(ctx, "dk", []byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	// Stale the secondary: write a newer version to the primary only.
	owners := sc.Owners("dk")
	newer := sc.NextVersion()
	if _, _, err := sc.VersionedShard(owners[0]).PutV(ctx, "dk", []byte("new"), 0, newer); err != nil {
		t.Fatal(err)
	}
	res, err := sc.GetResult(ctx, "dk", core.WithQuorum(2))
	if val, ver := res.Value.Value, res.Value.Version; err != nil || string(val) != "new" || ver != newer {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want newest %d", val, ver, err, newer)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	want := "dk:" + owners[1]
	for _, d := range sink.diverged {
		if d == want {
			return
		}
	}
	t.Fatalf("divergence reports %v missing %q", sink.diverged, want)
}

func TestPutVersionedReportsMissedWrites(t *testing.T) {
	sc, servers := startShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()
	sink := &recordingSink{}
	sc.SetRepairSink(sink)

	key := "mk"
	owners := sc.Owners(key)
	servers[owners[1]].Close() // secondary dies; quorum 1 still reachable
	if _, err := sc.PutVersioned(ctx, key, []byte("v"), 0); err != nil {
		t.Fatalf("PutVersioned with one dead owner: %v", err)
	}
	want := key + "@" + owners[1]
	deadline := time.Now().Add(versionedStragglerTimeout + 2*time.Second)
	for {
		sink.mu.Lock()
		for _, m := range sink.missed {
			if m == want {
				sink.mu.Unlock()
				return
			}
		}
		sink.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no WriteMissed(%q) observed", want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
