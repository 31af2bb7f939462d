package memkv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// nextEvent pulls one event from ch or fails the test after timeout.
func nextEvent(t *testing.T, ch <-chan WatchEvent, timeout time.Duration) WatchEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed while waiting for an event")
		}
		return ev
	case <-time.After(timeout):
		t.Fatal("timed out waiting for an event")
	}
	panic("unreachable")
}

// ---- Store-level watch ----

// A store watch sees the full lifecycle of keys under its prefix — put,
// overwrite, active expiry — and nothing outside the prefix.
func TestStoreWatchLifecycleEvents(t *testing.T) {
	s := NewStore()
	sw := s.Watch("p/", 16)
	defer sw.Close()

	s.Set("p/a", 0, []byte("one"))
	s.Set("outside", 0, []byte("invisible"))
	ev := nextEvent(t, sw.Events(), time.Second)
	if ev.Type != EventPut || ev.Key != "p/a" || ev.Version == 0 || string(ev.Value) != "one" {
		t.Fatalf("put event = %+v", ev)
	}

	firstVer := ev.Version
	s.Set("p/a", 0, []byte("two"))
	ev = nextEvent(t, sw.Events(), time.Second)
	if ev.Type != EventPut || ev.Key != "p/a" || ev.Version <= firstVer || string(ev.Value) != "two" {
		t.Fatalf("overwrite event = %+v (first version %d)", ev, firstVer)
	}

	// Active expiry: no reader ever touches the key again, yet the
	// sweeper emits the expire event at the deadline.
	s.SetTTL("p/t", 0, []byte("brief"), time.Second)
	ev = nextEvent(t, sw.Events(), time.Second)
	if ev.Type != EventPut || ev.Key != "p/t" || ev.TTLSecs != 1 {
		t.Fatalf("ttl put event = %+v", ev)
	}
	putVer := ev.Version
	ev = nextEvent(t, sw.Events(), 3*time.Second)
	if ev.Type != EventExpire || ev.Key != "p/t" || ev.Version != putVer {
		t.Fatalf("expire event = %+v (put version %d)", ev, putVer)
	}
	if _, _, ok := s.Get("p/t"); ok {
		t.Fatal("expired key still readable after expire event")
	}

	sw.Close()
	if _, ok := <-sw.Events(); ok {
		t.Fatal("events channel open after Close")
	}
	if err := sw.Err(); err != nil {
		t.Fatalf("Err after local Close = %v, want nil", err)
	}
	if n := s.Watchers(); n != 0 {
		t.Fatalf("Watchers = %d after close, want 0", n)
	}
}

// TestStoreWatchFanoutAllocations: one put fanned out to 16 prefix
// watchers costs exactly one allocation, the event's copy of the value —
// the store overwrites its own bytes in place, every watcher shares the
// copy, and the registry walk and the non-blocking sends allocate
// nothing.
func TestStoreWatchFanoutAllocations(t *testing.T) {
	if coretest.Race() {
		t.Skip("exact allocation counts do not hold under -race")
	}
	const watchers = 16
	s := NewStore()
	var wg sync.WaitGroup
	var delivered atomic.Int64
	ws := make([]*StoreWatch, watchers)
	for i := range ws {
		ws[i] = s.Watch("fan/", maxWatchBuffer)
		wg.Add(1)
		go func(w *StoreWatch) {
			defer wg.Done()
			for range w.Events() {
				delivered.Add(1)
			}
		}(ws[i])
	}
	val := []byte("fanout-value-0123456789")
	version := uint64(0)
	put := func() {
		version++
		if _, applied := s.PutVersion("fan/key", 0, val, 0, version); !applied {
			t.Fatalf("put of version %d not applied", version)
		}
	}
	put() // the key's first put also stores the key string
	if avg := testing.AllocsPerRun(1000, put); avg != 1 {
		t.Errorf("a put fanned out to %d watchers allocates %.2f/op, want exactly 1", watchers, avg)
	}
	for _, w := range ws {
		w.Close()
	}
	wg.Wait()
	if got, want := delivered.Load(), int64(watchers)*int64(version); got != want {
		t.Errorf("%d events delivered, want %d: every watcher sees every put", got, want)
	}
}

// A watcher that stops draining its buffer is disconnected — the store
// never blocks a write on a slow consumer.
func TestStoreSlowWatcherDisconnected(t *testing.T) {
	s := NewStore()
	sw := s.Watch("", 2)
	for i := 0; i < 10; i++ {
		s.Set(fmt.Sprintf("flood-%d", i), 0, []byte("x"))
	}
	// The buffered events drain and then the channel closes — the
	// overflow disconnected the watcher, not the reader.
	deadline := time.After(2 * time.Second)
	for open := true; open; {
		select {
		case _, open = <-sw.Events():
		case <-deadline:
			t.Fatal("slow watcher not disconnected")
		}
	}
	if err := sw.Err(); !errors.Is(err, ErrSlowWatcher) {
		t.Fatalf("Err = %v, want ErrSlowWatcher", err)
	}
	// The registry entry is removed (and counted) asynchronously.
	limit := time.Now().Add(2 * time.Second)
	for s.WatchDisconnects() != 1 {
		if time.Now().After(limit) {
			t.Fatalf("WatchDisconnects = %d, want 1", s.WatchDisconnects())
		}
		time.Sleep(time.Millisecond)
	}
}

// Of N writers racing the same expected version through CAS, exactly
// one wins per round — the store-level serialization CAS exists for.
func TestStoreCASContention(t *testing.T) {
	s := NewStore()
	const writers = 32
	round := func(expect uint64) uint64 {
		t.Helper()
		var wins, winner atomic.Uint64
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if ver, applied := s.CompareAndSwap("cas", 0, []byte{byte(i)}, 0, expect); applied {
					wins.Add(1)
					winner.Store(ver)
				}
			}(i)
		}
		wg.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("round expect=%d: %d writers applied, want exactly 1", expect, n)
		}
		return winner.Load()
	}
	v1 := round(0)  // create-if-absent round
	v2 := round(v1) // update round from the winner's version
	if v2 <= v1 {
		t.Fatalf("second round version %d not newer than %d", v2, v1)
	}
	if cur, applied := s.CompareAndSwap("cas", 0, []byte("stale"), 0, v1); applied || cur != v2 {
		t.Fatalf("stale expect: (%d, %v), want (%d, false)", cur, applied, v2)
	}
}

// ---- MuxClient watch + CAS ----

// One mux connection carries request/response traffic and a server-push
// event stream side by side; events respect the prefix and arrive in
// per-key order.
func TestMuxWatchDeliversPrefixEvents(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	st, err := cl.Watch(ctx, "w/", 32)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := cl.Set(ctx, "w/a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "unrelated", []byte("no event")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "w/a", []byte("second")); err != nil {
		t.Fatal(err)
	}

	ev := nextEvent(t, st.Events(), 2*time.Second)
	if ev.Type != EventPut || ev.Key != "w/a" || string(ev.Value) != "first" {
		t.Fatalf("first event = %+v, want put w/a", ev)
	}
	firstVer := ev.Version
	ev = nextEvent(t, st.Events(), 2*time.Second)
	if ev.Type != EventPut || ev.Key != "w/a" || string(ev.Value) != "second" || ev.Version <= firstVer {
		t.Fatalf("second event = %+v, want the overwrite of w/a above version %d", ev, firstVer)
	}

	st.Close()
	select {
	case <-st.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stream not done after Close")
	}
	if err := st.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
}

// CAS through the wire: create, conflict carrying the current version,
// retry from it, and an expired key counting as absent.
func TestMuxCASSemantics(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	v1, applied, err := cl.CAS(ctx, "ck", []byte("created"), 0, 0)
	if err != nil || !applied || v1 == 0 {
		t.Fatalf("create CAS = (%d, %v, %v)", v1, applied, err)
	}
	cur, applied, err := cl.CAS(ctx, "ck", []byte("lost"), 0, 0)
	if err != nil || applied || cur != v1 {
		t.Fatalf("conflicting CAS = (%d, %v, %v), want (%d, false, nil)", cur, applied, err, v1)
	}
	v2, applied, err := cl.CAS(ctx, "ck", []byte("updated"), 0, v1)
	if err != nil || !applied || v2 <= v1 {
		t.Fatalf("retry CAS = (%d, %v, %v), want applied > %d", v2, applied, err, v1)
	}
	got, err := cl.Get(ctx, "ck")
	if err != nil || string(got) != "updated" {
		t.Fatalf("Get after CAS = (%q, %v)", got, err)
	}

	// An expired value no longer guards its key: expect 0 re-creates.
	if _, applied, err := cl.CAS(ctx, "brief", []byte("x"), time.Second, 0); err != nil || !applied {
		t.Fatalf("ttl CAS = (%v, %v)", applied, err)
	}
	time.Sleep(1100 * time.Millisecond)
	if _, applied, err := cl.CAS(ctx, "brief", []byte("y"), 0, 0); err != nil || !applied {
		t.Fatalf("CAS after expiry = (%v, %v), want create to apply", applied, err)
	}
}

// A mux watch whose consumer stops reading is shed with ErrSlowWatcher
// instead of stalling the connection every other request shares.
func TestMuxSlowWatcherDisconnect(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()

	st, err := cl.Watch(ctx, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := cl.Set(ctx, fmt.Sprintf("burst-%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-st.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("slow mux watcher not disconnected")
	}
	if err := st.Err(); !errors.Is(err, ErrSlowWatcher) {
		t.Fatalf("Err = %v, want ErrSlowWatcher", err)
	}
	// The connection itself must still be healthy for ordinary calls.
	if got, err := cl.Get(ctx, "burst-00"); err != nil || string(got) != "x" {
		t.Fatalf("Get after shed = (%q, %v)", got, err)
	}
}

// Cancelling the watch context ends the stream and releases the
// server-side subscription.
func TestMuxWatchCtxCancel(t *testing.T) {
	srv, cl := startMux(t)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := cl.Watch(ctx, "c/", 8)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-st.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("stream not done after ctx cancel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.store.Watchers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server still holds %d watchers after cancel", srv.store.Watchers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ---- ShardedClient CAS + redundant prefix watch ----

// N writers racing ShardedClient.CAS with the same expectation: exactly
// one applies (serialized at the key's primary), the rest observe
// ErrCASConflict carrying the winner's version.
func TestShardedCASContention(t *testing.T) {
	sc, _ := startShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()

	const writers = 16
	var wins atomic.Uint64
	var winner atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ver, err := sc.CAS(ctx, "contended", []byte{byte(i)}, 0, 0)
			if err == nil {
				wins.Add(1)
				winner.Store(ver)
				return
			}
			if !errors.Is(err, ErrCASConflict) {
				t.Errorf("writer %d: %v, want ErrCASConflict", i, err)
			}
		}(i)
	}
	wg.Wait()
	if n := wins.Load(); n != 1 {
		t.Fatalf("%d CAS writers applied, want exactly 1", n)
	}
	// The read asks every owner, so it overlaps the winner's write quorum
	// of one whichever owner that write reached, and observes the winner
	// at its minted version.
	res, err := sc.GetResult(ctx, "contended", core.WithQuorum(sc.Replication()))
	if ver := res.Value.Version; err != nil || ver != winner.Load() {
		t.Fatalf("quorum GetResult = (%d, %v), want version %d", ver, err, winner.Load())
	}
	// Second round from the winner's version: again exactly one.
	var wins2 atomic.Uint64
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := sc.CAS(ctx, "contended", []byte{byte(i)}, 0, winner.Load()); err == nil {
				wins2.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if n := wins2.Load(); n != 1 {
		t.Fatalf("second round: %d applied, want exactly 1", n)
	}
}

// The tentpole acceptance path: a redundant prefix watch over a
// 2-replica placement delivers every event exactly once — including
// across one replica being killed mid-stream, with writes continuing.
func TestPrefixWatchExactlyOnceAcrossShardKill(t *testing.T) {
	sc, servers := startShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()

	w, err := sc.WatchPrefix(ctx, "eo/", 256)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const keys = 40
	wantVer := make(map[string]uint64, keys)
	killed := false
	for i := 0; i < keys; i++ {
		if i == keys/2 && !killed {
			// Kill one replica mid-stream. WriteQuorum 1 keeps writes
			// succeeding via the survivor; the watch must not miss a beat.
			for addr, srv := range servers {
				srv.Close()
				delete(servers, addr)
				killed = true
				break
			}
		}
		key := fmt.Sprintf("eo/%03d", i)
		ver, err := sc.PutVersioned(ctx, key, []byte(key), 0)
		if err != nil {
			t.Fatalf("put %s with one replica down: %v", key, err)
		}
		wantVer[key] = ver
		time.Sleep(2 * time.Millisecond)
	}

	got := make(map[string]int, keys)
	deadline := time.After(10 * time.Second)
	for len(got) < keys {
		select {
		case ev := <-w.Events():
			got[ev.Key]++
			if got[ev.Key] > 1 {
				t.Fatalf("key %s delivered %d times — duplicate leaked through", ev.Key, got[ev.Key])
			}
			if ev.Version != wantVer[ev.Key] {
				t.Fatalf("key %s delivered at version %d, want %d", ev.Key, ev.Version, wantVer[ev.Key])
			}
		case <-deadline:
			t.Fatalf("missed events: got %d of %d after shard kill", len(got), keys)
		}
	}
	st := w.Stats()
	if st.Delivered != keys {
		t.Fatalf("Delivered = %d, want %d", st.Delivered, keys)
	}
	// Before the kill both replicas carried each event; the redundant
	// copies must show up as suppressed duplicates, not deliveries.
	if st.Duplicates == 0 {
		t.Error("Duplicates = 0; redundant copies were not observed")
	}
}

// Watch storm: concurrent puts, CAS races, one-owner writes, and short TTLs
// against redundant watchers — the -race -count=5 target. No assertion
// beyond delivery and clean shutdown; the detector does the judging.
func TestWatchStormRace(t *testing.T) {
	sc, _ := startShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1})
	ctx := context.Background()

	w, err := sc.WatchPrefix(ctx, "storm/", 128)
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for range w.Events() {
			delivered.Add(1)
		}
	}()

	const writers = 4
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 60; n++ {
				key := fmt.Sprintf("storm/%d", rng.Intn(16))
				switch rng.Intn(4) {
				case 0:
					_, _ = sc.PutVersioned(ctx, key, []byte("put"), 0)
				case 1:
					_, _ = sc.CAS(ctx, key, []byte("cas"), 0, 0) // conflicts expected
				case 2:
					_, _ = sc.PutVersioned(ctx, key, []byte("brief"), time.Second)
				case 3:
					// A write to the primary alone: the replicas diverge.
					vb := sc.VersionedShard(sc.Owners(key)[0])
					if vb != nil {
						_, _, _ = vb.PutV(ctx, key, []byte("one"), 0, sc.NextVersion())
					}
				}
			}
		}(int64(i + 1))
	}
	wg.Wait()
	time.Sleep(50 * time.Millisecond)
	w.Close()
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer did not drain after Close")
	}
	if delivered.Load() == 0 {
		t.Fatal("storm delivered no events")
	}
}

// Paged Scan over the heap-based implementation must agree exactly with
// a full sorted enumeration, for every page size — and an exhausted
// cursor must return an empty page with more=false (the invariant the
// migration and recovery loops terminate on).
func TestScanPagedEquivalence(t *testing.T) {
	s := NewStore()
	rng := rand.New(rand.NewSource(7))
	want := make(map[string]bool)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k-%04d", rng.Intn(2000))
		want[key] = true
		s.Set(key, 0, []byte(key))
	}
	for _, page := range []int{1, 7, 64, 1000} {
		got := make([]string, 0, len(want))
		cursor := ""
		for {
			entries, more, err := scanAll(s, cursor, page)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				got = append(got, e.Key)
				cursor = e.Key
			}
			if !more {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("page=%d: scanned %d keys, want %d", page, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("page=%d: out of order at %d: %q >= %q", page, i, got[i-1], got[i])
			}
		}
		for _, k := range got {
			if !want[k] {
				t.Fatalf("page=%d: scanned unknown key %q", page, k)
			}
		}
		// Past the last key: empty page, no more.
		entries, more, _ := scanAll(s, got[len(got)-1], page)
		if len(entries) != 0 || more {
			t.Fatalf("page=%d: scan past end = (%d entries, more=%v), want empty/false", page, len(entries), more)
		}
	}
}

func scanAll(s *Store, after string, limit int) ([]ScanEntry, bool, error) {
	entries, more := s.Scan(after, limit)
	return entries, more, nil
}

// TestPrefixWatchDeliversVersionsInOrder: two shard loops observe v1 and
// then v2 of one key while the consumer reads nothing, so both copies
// are news when they pass the duplicate filter. They must leave on the
// merged stream in that order. The test lines the two observers up on
// the delivery lock and holds it past sync.Mutex's 1 ms starvation
// threshold, twice, so that the lock then hands off to each waiter in
// turn, yielding to it at once: an observer that let go of the lock
// before its send is overtaken by the next one, as a loaded scheduler
// can do too. The channel has room for both, so no observer blocks
// while the test holds the lock. Without the lock held across the send,
// 199 of 200 rounds (-count=10) delivered v2 first: every run failed.
func TestPrefixWatchDeliversVersionsInOrder(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &PrefixWatch{ctx: ctx, events: make(chan WatchEvent, 2), seen: make(map[string]eventID)}
	for round := 0; round < 20; round++ {
		key := fmt.Sprintf("k%d", round)
		var wg sync.WaitGroup
		w.mu.Lock()
		for v := uint64(1); v <= 2; v++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.observe(WatchEvent{Type: EventPut, Key: key, Version: v})
			}()
			time.Sleep(2 * time.Millisecond) // v1 waits on the lock before v2
		}
		// Let go and take the lock again at once: the woken v1 finds it
		// held after waiting past the threshold, which puts the lock in
		// starvation mode.
		w.mu.Unlock()
		w.mu.Lock()
		time.Sleep(2 * time.Millisecond)
		w.mu.Unlock()
		wg.Wait()
		var got []uint64
		for len(w.events) > 0 {
			got = append(got, (<-w.events).Version)
		}
		if len(got) == 0 || got[len(got)-1] != 2 || !slices.IsSorted(got) {
			t.Fatalf("round %d: versions delivered in the order %v, want 2 last and ascending", round, got)
		}
	}
}
