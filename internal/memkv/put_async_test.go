package memkv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// These tests pin the non-blocking write path: MuxClient.StartPutV
// (completions from the reader, the timeout timer and fail — exactly one
// per started put), ShardedClient's write as a core engine call whose
// copies refuse withdrawal (quorum return, stragglers that need no goroutine, per-owner
// exactly-once hints, the blocking launch for a declined start or a
// wrapped shard, its copies counted by the read strategy's governor),
// and what a put allocates on both ends of the wire. Run with -race
// -count=5.

// putSink is a core.Sink[PutVResult] that keeps every completion by
// slot.
type putSink struct {
	mu   sync.Mutex
	got  map[int][]PutVResult
	each chan struct{} // one token per completion
}

func newPutSink(buffer int) *putSink {
	return &putSink{got: make(map[int][]PutVResult), each: make(chan struct{}, buffer)}
}

func (s *putSink) Complete(slot int, r PutVResult, err error) {
	if r.Err != err {
		panic(fmt.Sprintf("put completion: result carries %v, err is %v", r.Err, err))
	}
	s.mu.Lock()
	s.got[slot] = append(s.got[slot], r)
	s.mu.Unlock()
	s.each <- struct{}{}
}

// Drop is never asked of a put; false keeps every completion.
func (*putSink) Drop(int) bool { return false }

func (s *putSink) results(slot int) []PutVResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]PutVResult(nil), s.got[slot]...)
}

// hintSink is a RepairSink that checks every missed write against what
// was actually put: a frame recycled under a straggler would report
// another write's key, value or version.
type hintSink struct {
	t      *testing.T
	mu     sync.Mutex
	missed map[string]int // "key@owner" → times reported
}

func newHintSink(t *testing.T) *hintSink { return &hintSink{t: t, missed: make(map[string]int)} }

// putValue is the value every test here writes under key at version.
func putValue(key string, version uint64) []byte {
	return []byte(fmt.Sprintf("%s=%d", key, version))
}

func (h *hintSink) WriteMissed(key string, value []byte, version uint64, _ time.Duration, owner string) {
	if !bytes.Equal(value, putValue(key, version)) {
		h.t.Errorf("WriteMissed(%q, version %d, owner %s) carries value %q: not the value written under that key and version", key, version, owner, value)
	}
	h.mu.Lock()
	h.missed[key+"@"+owner]++
	h.mu.Unlock()
}

func (h *hintSink) Divergence(string, []byte, uint64, uint32, []string) {}

func (h *hintSink) count(key, owner string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.missed[key+"@"+owner]
}

// holds reports whether srv's store has key at exactly version.
func holds(srv *Server, key string, version uint64) bool {
	_, _, v, _, ok := srv.Store().GetVersion(key)
	return ok && v == version
}

// drained waits until no request is registered on any client.
func drained(t *testing.T, muxes []*MuxClient) {
	t.Helper()
	deadline := time.Now().Add(versionedStragglerTimeout + 5*time.Second)
	for {
		n := 0
		for _, m := range muxes {
			n += pendingTags(m)
		}
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still registered", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// warmPuts writes until every client has dialed, so that the puts under
// test are started rather than declined, and returns how many puts that
// took.
func warmPuts(t *testing.T, sc *ShardedClient, muxes []*MuxClient) int {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		dialed := 0
		for _, m := range muxes {
			if m.cn.Load() != nil {
				dialed++
			}
		}
		if dialed == len(muxes) {
			return i
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d puts did not reach every shard", i)
		}
		if err := sc.PutVersionAt(ctx, fmt.Sprint("warm", i), []byte("w"), 0, 1); err != nil {
			t.Fatal(err)
		}
		// Under a write quorum below the replication the put returns
		// while its other copy is still dialing.
		time.Sleep(time.Millisecond)
	}
}

// TestMuxEntryFitsMapSlot: the waiter table stores entries by value, and
// a Go map boxes elements over 128 bytes — one allocation per insert,
// on every request.
func TestMuxEntryFitsMapSlot(t *testing.T) {
	if sz := unsafe.Sizeof(muxEntry{}); sz > 128 {
		t.Fatalf("muxEntry is %d bytes; over 128 the waiter map allocates per insert", sz)
	}
}

// TestAsyncPutVersionedSpawnsNoGoroutine: a thousand quorum-1-of-2 puts
// in flight at once over servers that take 50 ms to answer are two
// thousand wire requests and no goroutine beyond their callers', and
// every one lands on both owners.
func TestAsyncPutVersionedSpawnsNoGoroutine(t *testing.T) {
	slow := func(int) func() time.Duration { return func() time.Duration { return 50 * time.Millisecond } }
	sc, servers, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 1}, 5*time.Second, slow)
	warmPuts(t, sc, muxes)
	drained(t, muxes)
	ctx := context.Background()

	const puts = 1000
	base := runtime.NumGoroutine()
	vers := make([]uint64, puts)
	var peak atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < puts; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			key := fmt.Sprint("k", i)
			ver := sc.NextVersion()
			vers[i] = ver
			if err := sc.PutVersionAt(ctx, key, putValue(key, ver), 0, ver); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
			// On return one copy has acked and the other is still out.
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got, limit := peak.Load(), int64(base+puts+10); got > limit {
		t.Errorf("%d goroutines at the peak of %d concurrent puts, %d before them: the copies run on goroutines of their own", got, puts, base)
	}
	drained(t, muxes)
	for i := 0; i < puts; i++ {
		key := fmt.Sprint("k", i)
		for _, owner := range sc.Owners(key) {
			if !holds(servers[muxIndex(t, muxes, owner)], key, vers[i]) {
				t.Fatalf("%s does not hold %s at version %d", owner, key, vers[i])
			}
		}
	}
}

// TestAsyncPutCompletesExactlyOnce races the three ways a started put
// ends — the server's reply, the timeout timer, the connection failing —
// on the same tags. Directly on one client: every accepted StartPutV
// completes exactly once. Through the ShardedClient, write-all: per
// owner a copy is acked or reported missed, never both and never
// neither, and every report names the write it belongs to (the frame is
// not recycled while a copy is out).
func TestAsyncPutCompletesExactlyOnce(t *testing.T) {
	// A third of the replies are immediate, a third take a millisecond
	// or two, a third outlast the client's timeout.
	scatter := func(seed int64) func() time.Duration {
		var mu sync.Mutex
		rng := rand.New(rand.NewSource(seed))
		return func() time.Duration {
			mu.Lock()
			defer mu.Unlock()
			switch rng.Intn(3) {
			case 0:
				return 0
			case 1:
				return time.Duration(1+rng.Intn(2)) * time.Millisecond
			default:
				return 40 * time.Millisecond
			}
		}
	}
	const timeout = 5 * time.Millisecond
	// breaker fails the client's connection every few milliseconds until
	// stop is closed; the redialer reconnects it at once.
	breaker := func(muxes []*MuxClient, stop chan struct{}, done *sync.WaitGroup) {
		defer done.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(12 * time.Millisecond):
			}
			if cn := muxes[i%len(muxes)].cn.Load(); cn != nil {
				cn.fail(errors.New("broken by the test"))
			}
		}
	}

	t.Run("direct", func(t *testing.T) {
		_, addr := startServerDelay(t, scatter(1))
		cl := NewMuxClient(addr, timeout)
		defer cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for cl.Set(ctx, "warm", []byte("w")) != nil && ctx.Err() == nil {
		}
		const n = 5000
		sink := newPutSink(n)
		stop := make(chan struct{})
		var bg sync.WaitGroup
		bg.Add(1)
		go breaker([]*MuxClient{cl}, stop, &bg)
		accepted := make([]bool, n)
		var nAccepted int
		for i := 0; i < n; i++ {
			accepted[i] = cl.StartPutV("k", []byte("v"), 0, uint64(i+1), sink, i)
			if accepted[i] {
				nAccepted++
			}
			// Spread the puts over many of the breaker's periods (and give
			// a connection in redial a moment).
			time.Sleep(20 * time.Microsecond)
		}
		close(stop)
		bg.Wait()
		for i := 0; i < nAccepted; i++ {
			select {
			case <-sink.each:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d of %d started puts completed", i, nAccepted)
			}
		}
		var ok, timedOut, lost int
		for i := 0; i < n; i++ {
			rs := sink.results(i)
			if !accepted[i] {
				if len(rs) != 0 {
					t.Fatalf("put %d was declined and completed %+v", i, rs)
				}
				continue
			}
			if len(rs) != 1 {
				t.Fatalf("put %d completed %d times: %+v", i, len(rs), rs)
			}
			switch r := rs[0]; {
			case r.Err == nil:
				ok++
			case errors.Is(r.Err, ErrMuxTimeout):
				timedOut++
			case errors.Is(r.Err, ErrMuxConnLost):
				lost++
			default:
				t.Fatalf("put %d: %v", i, r.Err)
			}
		}
		t.Logf("%d started of %d: %d answered, %d timed out, %d lost with their connection", nAccepted, n, ok, timedOut, lost)
		if ok == 0 || timedOut == 0 || lost == 0 {
			t.Error("one of the three endings never happened: the race is not the one this test is for")
		}
		select {
		case <-sink.each:
			t.Error("a completion beyond one per started put")
		case <-time.After(2 * timeout):
		}
		if got := pendingTags(cl); got != 0 {
			t.Errorf("%d tags still registered", got)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		sc, servers, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 2}, timeout,
			func(i int) func() time.Duration { return scatter(int64(i)) })
		hints := newHintSink(t)
		sc.SetRepairSink(hints)
		ctx := context.Background()
		const callers, each = 4, 500
		type put struct {
			key string
			ver uint64
			err error
		}
		all := make([]put, callers*each)
		stop := make(chan struct{})
		var bg, wg sync.WaitGroup
		bg.Add(1)
		go breaker(muxes, stop, &bg)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					p := &all[c*each+i]
					p.key = fmt.Sprint("k", c, "-", i)
					p.ver = sc.NextVersion()
					p.err = sc.PutVersionAt(ctx, p.key, putValue(p.key, p.ver), 0, p.ver)
					if p.err != nil {
						// Failing fast while redialing: do not spend
						// the whole run inside one outage.
						time.Sleep(200 * time.Microsecond)
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		bg.Wait()
		drained(t, muxes)
		var acked, failed int
		for _, p := range all {
			var missed int
			for i, m := range muxes {
				n := hints.count(p.key, m.Addr())
				if n > 1 {
					t.Fatalf("%s: %d hints for owner %s", p.key, n, m.Addr())
				}
				missed += n
				// A copy nobody reported missed was acked, so it is there.
				if n == 0 && !holds(servers[i], p.key, p.ver) {
					t.Fatalf("%s: owner %s neither holds version %d nor was reported missed", p.key, m.Addr(), p.ver)
				}
			}
			switch {
			case p.err == nil:
				acked++
				if missed != 0 {
					t.Fatalf("%s: write-all returned nil and %d copies were reported missed", p.key, missed)
				}
			case errors.Is(p.err, core.ErrQuorumUnreachable):
				failed++
				if missed == 0 {
					t.Fatalf("%s: %v, and no copy was reported missed", p.key, p.err)
				}
			default:
				t.Fatalf("%s: %v", p.key, p.err)
			}
		}
		t.Logf("%d puts: %d acked by both owners, %d short of the quorum", len(all), acked, failed)
		if acked == 0 || failed == 0 {
			t.Error("every put ended the same way: the race is not the one this test is for")
		}
	})
}

// TestAsyncPutVersionedOutlivesItsCaller: a caller whose context ends
// before the quorum gets the context's error, and every copy still lands
// — detaching the write from its caller is what makes it durable. That
// holds for a key with one owner too: its one copy is started like any
// other, not run under the caller's context.
func TestAsyncPutVersionedOutlivesItsCaller(t *testing.T) {
	for _, cfg := range []ShardedConfig{
		{Replication: 2, WriteQuorum: 2},
		{Replication: 1},
	} {
		t.Run(fmt.Sprintf("replication %d", cfg.Replication), func(t *testing.T) {
			const stall = 250 * time.Millisecond
			slow := func(int) func() time.Duration { return func() time.Duration { return stall } }
			sc, servers, muxes := startAsyncShards(t, 2, cfg, 5*time.Second, slow)
			warmPuts(t, sc, muxes)
			hints := newHintSink(t)
			sc.SetRepairSink(hints)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			began := time.Now()
			ver, err := sc.PutVersioned(ctx, "k", []byte("v"), 0)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("PutVersioned under a 5 ms deadline over %v servers: %v, want the deadline's error", stall, err)
			}
			if waited := time.Since(began); waited > stall/2 {
				t.Errorf("PutVersioned returned after %v: it waited for the servers, not its context", waited)
			}
			drained(t, muxes)
			for _, owner := range sc.Owners("k") {
				if !holds(servers[muxIndex(t, muxes, owner)], "k", ver) {
					t.Errorf("%s does not hold the write its caller walked away from", owner)
				}
			}
			if n := len(hints.missed); n != 0 {
				t.Errorf("%d copies reported missed; every one was applied", n)
			}
		})
	}
}

// TestShardedGovernorCountsWriteCopies: server load is load whatever the
// op. A client whose reads are governed writes at quorum 1 of 2 to a
// fast and a slow owner, so every write leaves a copy in flight; past
// the governor's threshold, the next read launches one copy instead of
// two, although no read has loaded the servers.
func TestShardedGovernorCountsWriteCopies(t *testing.T) {
	var slow atomic.Int32
	slow.Store(-1)
	read := core.LoadAware(core.Fixed{Copies: 2}, 1)
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1, ReadStrategy: read}, 5*time.Second,
		func(i int) func() time.Duration {
			return func() time.Duration {
				if int32(i) == slow.Load() {
					return 300 * time.Millisecond
				}
				return 0
			}
		})
	warmPuts(t, sc, muxes)
	drained(t, muxes)
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if res, err := sc.GetResult(ctx, "k"); err != nil || res.Launched != 2 {
		t.Fatalf("a read before the write load: %d copies launched (%v), want 2", res.Launched, err)
	}

	slow.Store(1)
	const writes = 20
	for i := 0; i < writes; i++ {
		if _, err := sc.PutVersioned(ctx, fmt.Sprint("w", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	gs := read.Governor().Stats()
	if gs.InFlight < writes/2 {
		t.Errorf("the governor counts %d copies in flight after %d writes that each left one out", gs.InFlight, writes)
	}
	res, err := sc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 || !read.Governor().Gated() {
		t.Errorf("the read after %d writes' copies pushed utilization to %.2f launched %d copies (gated %v), want 1",
			writes, gs.Utilization, res.Launched, read.Governor().Gated())
	}
	drained(t, muxes)
}

// TestAsyncPutDeclinedStartFallsBack: StartPutV does only what can be
// done without blocking. Over connections never dialed, and over one
// the redialer owns, it declines, and the copy goes through the blocking
// PutV — which dials, or fails fast into a hint.
func TestAsyncPutDeclinedStartFallsBack(t *testing.T) {
	sc, servers, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1}, 5*time.Second, nil)
	hints := newHintSink(t)
	sc.SetRepairSink(hints)
	ctx := context.Background()
	sink := newPutSink(1)
	for _, m := range muxes {
		if m.StartPutV("k", []byte("v"), 0, 1, sink, 0) {
			t.Fatal("StartPutV accepted with no connection yet")
		}
	}
	// Nothing is dialed: both copies are declined and run the blocking
	// way, which dials.
	ver := sc.NextVersion()
	if err := sc.PutVersionAt(ctx, "k", putValue("k", ver), 0, ver); err != nil {
		t.Fatalf("first put over undialed connections: %v", err)
	}
	// The straggler is a goroutine that may still be dialing.
	deadline := time.Now().Add(5 * time.Second)
	for i, srv := range servers {
		for !holds(srv, "k", ver) {
			if time.Now().After(deadline) {
				t.Fatalf("%s does not hold the first put", muxes[i].Addr())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// And both replies are claimed: a copy whose reply is still on its way
	// would fail when its server is killed below, and hint a second time.
	drained(t, muxes)
	if muxes[0].StartPutV("bad key", nil, 0, 1, sink, 0) {
		t.Fatal("StartPutV accepted a key PutV would reject")
	}

	// Kill one owner for good: its reconnection goes to the redialer.
	down := 0
	servers[down].Close()
	deadline = time.Now().Add(5 * time.Second)
	for {
		muxes[down].mu.Lock()
		redialing := muxes[down].redialing
		muxes[down].mu.Unlock()
		if redialing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never handed to the redialer")
		}
		time.Sleep(time.Millisecond)
	}
	if muxes[down].StartPutV("k", []byte("v"), 0, 1, sink, 0) {
		t.Fatal("StartPutV accepted while redialing")
	}
	ver = sc.NextVersion()
	if err := sc.PutVersionAt(ctx, "k", putValue("k", ver), 0, ver); err != nil {
		t.Fatalf("quorum-1 put with one owner in redial: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for hints.count("k", muxes[down].Addr()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the copy to the dead owner was reported missed %d times, want 1", hints.count("k", muxes[down].Addr()))
		}
		time.Sleep(time.Millisecond)
	}
	if !holds(servers[1-down], "k", ver) {
		t.Error("the live owner does not hold the put")
	}
	if len(sink.results(0)) != 0 {
		t.Error("a declined StartPutV completed its sink")
	}
}

// putCountingMux is what bench's tracing wrapper is to writes: a Backend
// that embeds the real client — so it has the promoted StartPutV — and
// overrides PutV.
type putCountingMux struct {
	*MuxClient
	putVs atomic.Int64
}

func (c *putCountingMux) PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (uint64, bool, error) {
	c.putVs.Add(1)
	return c.MuxClient.PutV(ctx, key, value, ttl, version)
}

// TestAsyncWrapperSeesEveryPutCopy pins the concrete-type rule of
// AddShard for writes: only a *MuxClient itself has its write copies
// started; a wrapper that overrides PutV sees every one of them.
func TestAsyncWrapperSeesEveryPutCopy(t *testing.T) {
	var wrapped []*putCountingMux
	var backends []Backend
	for i := 0; i < 3; i++ {
		_, addr := startServer(t)
		w := &putCountingMux{MuxClient: NewMuxClient(addr, 5*time.Second)}
		wrapped = append(wrapped, w)
		backends = append(backends, w)
	}
	sc := NewShardedClient(ShardedConfig{Replication: 2, WriteQuorum: 1}, backends...)
	defer closeAll(backends)
	ctx := context.Background()
	const puts = 100
	for i := 0; i < puts; i++ {
		if _, err := sc.PutVersioned(ctx, fmt.Sprint("k", i), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	total := func() int64 {
		var n int64
		for _, w := range wrapped {
			n += w.putVs.Load()
		}
		return n
	}
	// A straggler's goroutine may still be on its way into PutV.
	deadline := time.Now().Add(2 * time.Second)
	for total() != puts*int64(sc.Replication()) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := total(), puts*int64(sc.Replication()); got != want {
		t.Errorf("wrappers saw %d PutV calls for %d puts to %d owners each, want %d", got, puts, sc.Replication(), want)
	}
}

// TestAsyncPutSurvivesServerKill: five thousand write-all puts, one of
// three servers killed part-way. Every put either returned nil with both
// owners holding it, or reported the quorum unreachable; and every copy
// is accounted for — held by its owner or reported missed, exactly one
// of the two on a server that stayed up. (A copy the dying server
// applied without getting its reply out is both, legitimately: the
// client cannot know.)
func TestAsyncPutSurvivesServerKill(t *testing.T) {
	sc, servers, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	hints := newHintSink(t)
	sc.SetRepairSink(hints)
	ctx := context.Background()
	const callers, each, victim = 8, 625, 1
	type put struct {
		key string
		ver uint64
		err error
	}
	all := make([]put, callers*each)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if issued.Add(1) == callers*each*2/5 {
					servers[victim].Close()
				}
				p := &all[c*each+i]
				p.key = fmt.Sprint("k", c, "-", i)
				p.ver = sc.NextVersion()
				p.err = sc.PutVersionAt(ctx, p.key, putValue(p.key, p.ver), 0, p.ver)
			}
		}()
	}
	wg.Wait()
	drained(t, muxes)
	var acked, failed, copies int
	for _, p := range all {
		var missed int
		for _, owner := range sc.Owners(p.key) {
			i := muxIndex(t, muxes, owner)
			n := hints.count(p.key, owner)
			held := holds(servers[i], p.key, p.ver)
			switch {
			case n > 1:
				t.Fatalf("%s: %d hints for owner %s", p.key, n, owner)
			case n == 0 && !held:
				t.Fatalf("%s: owner %s neither holds version %d nor was reported missed", p.key, owner, p.ver)
			case n == 1 && held && i != victim:
				t.Fatalf("%s: owner %s stayed up, holds version %d and was reported missed", p.key, owner, p.ver)
			}
			missed += n
			copies++
		}
		switch {
		case p.err == nil:
			acked++
			if missed != 0 {
				t.Fatalf("%s: write-all returned nil and %d copies were reported missed", p.key, missed)
			}
		case errors.Is(p.err, core.ErrQuorumUnreachable):
			failed++
			if missed == 0 {
				t.Fatalf("%s: %v, and no copy was reported missed", p.key, p.err)
			}
		default:
			t.Fatalf("%s: %v", p.key, p.err)
		}
	}
	t.Logf("%d puts, %d copies: %d acked by both owners, %d short of the quorum", len(all), copies, acked, failed)
	if copies != len(all)*sc.Replication() || acked == 0 || failed == 0 {
		t.Errorf("%d copies of %d puts, %d acked, %d failed: the kill did not land mid-storm", copies, len(all), acked, failed)
	}
}

// TestAsyncPutReplyDecodedInPlace hand-feeds the reader what a started
// put can be answered with: the fixed opStoredV reply costs no
// allocation, a reply too short to hold a version and an opErr complete
// the put with an error and leave the connection in frame, and a torn
// reply fails the connection and still completes the put.
func TestAsyncPutReplyDecodedInPlace(t *testing.T) {
	stored := appendVerFrame(nil, opStoredV, 99, 1, "", 4242, 0, nil)
	cn := &muxConn{wireConn: wireConn{done: make(chan struct{})}, waiters: make(map[uint64]muxEntry)}
	sink := newPutSink(2000)
	r := bufio.NewReaderSize(&loopReader{b: stored}, 4096)
	avg := testing.AllocsPerRun(1000, func() {
		cn.waiters[99] = muxEntry{put: discardPuts{}, slot: 1}
		if err := cn.readOne(r); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 && !coretest.Race() {
		t.Errorf("reading a started put's reply costs %.2f allocations, want 0", avg)
	}
	cn.waiters[99] = muxEntry{put: sink, slot: 1}
	if err := cn.readOne(r); err != nil {
		t.Fatal(err)
	}
	if rs := sink.results(1); len(rs) != 1 || rs[0] != (PutVResult{Current: 4242, Applied: true}) {
		t.Fatalf("completions %+v, want one: version 4242 applied", rs)
	}

	short := appendFrame(nil, &frame{op: opStoredV, tag: 7, val: make([]byte, verPayloadHeader-1)})
	refused := appendErrFrame(nil, 8, "putv requires a key")
	r = bufio.NewReader(bytes.NewReader(append(append(short, refused...), stored...)))
	cn.waiters[7] = muxEntry{put: sink, slot: 2}
	cn.waiters[8] = muxEntry{put: sink, slot: 3}
	cn.waiters[99] = muxEntry{put: sink, slot: 4}
	for i := 0; i < 3; i++ {
		if err := cn.readOne(r); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	if rs := sink.results(2); len(rs) != 1 || !errors.Is(rs[0].Err, errVerPayload) {
		t.Errorf("short reply: %+v, want errVerPayload", rs)
	}
	if rs := sink.results(3); len(rs) != 1 || rs[0].Err == nil {
		t.Errorf("opErr reply: %+v, want the server's error", rs)
	}
	if rs := sink.results(4); len(rs) != 1 || rs[0].Err != nil || rs[0].Current != 4242 {
		t.Errorf("the reply after them: %+v: the stream fell out of frame", rs)
	}

	for cut := frameHeaderLen; cut < len(stored); cut += 5 {
		a, b := net.Pipe()
		tcn := &muxConn{wireConn: wireConn{c: a, done: make(chan struct{})}, waiters: make(map[uint64]muxEntry)}
		tsink := newPutSink(1)
		tcn.waiters[99] = muxEntry{put: tsink, slot: 0}
		if err := tcn.readOne(bufio.NewReader(bytes.NewReader(stored[:cut]))); err == nil {
			t.Fatalf("a reply torn at byte %d of %d read without error", cut, len(stored))
		}
		if rs := tsink.results(0); len(rs) != 1 || !errors.Is(rs[0].Err, ErrMuxConnLost) {
			t.Errorf("torn at %d: completions %+v, want one wrapping ErrMuxConnLost", cut, rs)
		}
		b.Close()
	}
}

// discardPuts is a put sink that keeps nothing.
type discardPuts struct{}

func (discardPuts) Complete(int, PutVResult, error) {}
func (discardPuts) Drop(int) bool                   { return false }

// loopback is the stack the allocation gates measure: three live
// servers on loopback TCP, one MuxClient each, a write-all
// ShardedClient. testing.AllocsPerRun counts the whole process, so the
// servers' allocations are in every number below.
func loopback(t *testing.T) (*ShardedClient, []*Server, []*MuxClient) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	sc, servers, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2, WriteQuorum: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	return sc, servers, muxes
}

// TestShardedPutVersionedAllocations: a write-all PutVersioned of a
// 1 KiB value over an existing key allocates nothing in the whole
// process. Each of the two servers runs the write on the bytes in its
// read buffer and copies the value into the bytes the store already
// holds for the key; the client makes no goroutine, context, timer,
// channel, payload slice or reply buffer. (Measured 0.00; 2 when each
// server read the value into a slice of its own, 4 when it also made a
// string of every written key, 34 before the write was started rather
// than run.)
func TestShardedPutVersionedAllocations(t *testing.T) {
	sc, _, _ := loopback(t)
	ctx := context.Background()
	value := bytes.Repeat([]byte{'v'}, 1024)
	put := func() {
		// Not a one-byte key: Go makes those strings without allocating.
		if _, err := sc.PutVersioned(ctx, "key-000042", value, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		put()
	}
	avg := testing.AllocsPerRun(2000, put)
	t.Logf("PutVersioned: %.2f allocs", avg)
	if avg != 0 {
		t.Errorf("PutVersioned allocates %.2f times across client and servers, want 0", avg)
	}
}

// TestShardedStalePutAllocatesNothing: a write that loses
// last-writer-wins on both owners allocates nothing in the whole
// process — the servers look the key up as the bytes in their read
// buffers and keep none of them.
func TestShardedStalePutAllocatesNothing(t *testing.T) {
	sc, servers, _ := loopback(t)
	ctx := context.Background()
	value := bytes.Repeat([]byte{'v'}, 1024)
	if err := sc.PutVersionAt(ctx, "key-000042", value, 0, 1<<62); err != nil {
		t.Fatal(err)
	}
	stale := func() {
		if err := sc.PutVersionAt(ctx, "key-000042", value[:100], 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		stale()
	}
	avg := testing.AllocsPerRun(2000, stale)
	t.Logf("stale PutVersionAt: %.2f allocs", avg)
	if avg != 0 {
		t.Errorf("a stale PutVersionAt allocates %.2f times across client and servers, want 0", avg)
	}
	var lost int64
	for _, srv := range servers {
		lost += srv.Stats()["stale_puts"]
	}
	if lost < 2*2100 {
		t.Errorf("servers counted %d stale puts, want at least %d: the writes under test must lose", lost, 2*2100)
	}
}

// TestMuxGetHitAllocations: a Get that hits allocates the value the
// client returns and nothing else — the server looks the key up where it
// lies in its read buffer. (Measured 1.00; 2 when the server made a
// string of every key.)
func TestMuxGetHitAllocations(t *testing.T) {
	_, _, muxes := loopback(t)
	ctx := context.Background()
	cl := muxes[0]
	if err := cl.Set(ctx, "key-000042", bytes.Repeat([]byte{'v'}, 1024)); err != nil {
		t.Fatal(err)
	}
	get := func() {
		if _, err := cl.Get(ctx, "key-000042"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		get()
	}
	avg := testing.AllocsPerRun(2000, get)
	t.Logf("Get hit: %.2f allocs", avg)
	if avg > 1 {
		t.Errorf("a Get hit allocates %.2f times across client and server, want 1", avg)
	}
}

// TestMuxPutStoresExactLengthValue: what the store keeps of a put that
// came over the wire is a slice of exactly the value's length — not the
// frame's value, which is a version header longer and would round a
// 1 KiB value up to the next size class. An overwrite of the same length
// reuses the bytes the store holds; one of another length gets a fresh
// slice, again of exact length. The item is read from the shard map:
// Store.Get returns a copy.
func TestMuxPutStoresExactLengthValue(t *testing.T) {
	srv, cl := startMux(t)
	ctx := context.Background()
	check := func(key string, value []byte, op string) []byte {
		t.Helper()
		it, ok := stored(srv.Store(), key)
		if !ok || !bytes.Equal(it.data, value) || cap(it.data) != len(value) {
			t.Errorf("%d-byte %s: store keeps %d bytes in a slice of capacity %d", len(value), op, len(it.data), cap(it.data))
		}
		return it.data
	}
	for _, n := range []int{0, 1, 1000, 1024} {
		key := fmt.Sprint("k", n)
		value := bytes.Repeat([]byte{'v'}, n)
		if _, applied, err := cl.PutV(ctx, key, value, 0, 1); err != nil || !applied {
			t.Fatalf("PutV(%d bytes) = (%v, %v)", n, applied, err)
		}
		check(key, value, "PutV")
		if _, applied, err := cl.CAS(ctx, key, value, 0, 1); err != nil || !applied {
			t.Fatalf("CAS(%d bytes) = (%v, %v)", n, applied, err)
		}
		check(key, value, "CAS")
	}

	const key = "overwritten"
	ver := uint64(10)
	put := func(fill byte, n int) []byte {
		t.Helper()
		ver++
		value := bytes.Repeat([]byte{fill}, n)
		if _, applied, err := cl.PutV(ctx, key, value, 0, ver); err != nil || !applied {
			t.Fatalf("PutV(%d bytes at version %d) = (%v, %v)", n, ver, applied, err)
		}
		return check(key, value, fmt.Sprint("put at version ", ver))
	}
	first := put('a', 1000)
	if same := put('b', 1000); &same[0] != &first[0] {
		t.Error("a same-length overwrite was stored in a new slice, want the bytes the store held")
	}
	if longer := put('c', 1024); &longer[0] == &first[0] {
		t.Error("a longer overwrite was stored in the old slice")
	}
	if shorter := put('d', 1); &shorter[0] == &first[0] {
		t.Error("a shorter overwrite was stored in the old slice")
	}
}

// TestMuxServerRepliesUnchangedByInPlaceDecode pins, frame for frame,
// what the server answers to requests its in-place decoders treat
// specially — lookups executed on the reader's window, versioned writes
// whose payload header is read where it lies — on the read loop and,
// with every request parked for a millisecond.
func TestMuxServerRepliesUnchangedByInPlaceDecode(t *testing.T) {
	long := string(bytes.Repeat([]byte{'k'}, maxKeyLen))
	reqs := []struct {
		name string
		req  []byte
		op   byte
		aux  uint32
		val  string
	}{
		{"get miss", appendFrame(nil, &frame{op: opGetV, key: "absent"}), opNotFound, 0, ""},
		{"get no key", appendFrame(nil, &frame{op: opGetV}), opNotFound, 0, ""},
		{"putv", appendVerFrame(nil, opPutV, 0, 0, "k", 7, 0, []byte("seven")), opStoredV, 1, string(appendVerPayload(nil, 7, 0, nil))},
		{"putv stale", appendVerFrame(nil, opPutV, 0, 0, "k", 6, 0, []byte("six")), opStoredV, 0, string(appendVerPayload(nil, 7, 0, nil))},
		{"putv empty value", appendVerFrame(nil, opPutV, 0, 0, long, 1, 0, nil), opStoredV, 1, string(appendVerPayload(nil, 1, 0, nil))},
		{"putv short", appendFrame(nil, &frame{op: opPutV, key: "k", val: []byte("eleven byte")}), opErr, 0, "putv requires a versioned payload"},
		{"putv version 0", appendVerFrame(nil, opPutV, 0, 0, "k", 0, 0, []byte("v")), opErr, 0, "putv requires a versioned payload"},
		{"putv no key", appendVerFrame(nil, opPutV, 0, 0, "", 7, 0, []byte("v")), opErr, 0, "putv requires a key"},
		{"putv no key, short", appendFrame(nil, &frame{op: opPutV, val: []byte("x")}), opErr, 0, "putv requires a key"},
		{"get hit", appendFrame(nil, &frame{op: opGetV, key: "k"}), opValueV, 0, string(appendVerPayload(nil, 7, 0, []byte("seven")))},
		{"get with a value", appendFrame(nil, &frame{op: opGetV, key: "k", val: []byte("ignored")}), opValueV, 0, string(appendVerPayload(nil, 7, 0, []byte("seven")))},
		{"get long key", appendFrame(nil, &frame{op: opGetV, key: long}), opValueV, 0, string(appendVerPayload(nil, 1, 0, nil))},
		{"getv hit", appendFrame(nil, &frame{op: opGetV, key: "k"}), opValueV, 0, string(appendVerPayload(nil, 7, 0, []byte("seven")))},
		{"getv miss", appendFrame(nil, &frame{op: opGetV, key: "absent"}), opNotFound, 0, ""},
		{"cas short", appendFrame(nil, &frame{op: opCAS, key: "k", val: []byte("x")}), opErr, 0, "cas requires a versioned payload"},
		{"cas no key", appendVerFrame(nil, opCAS, 0, 0, "", 7, 0, nil), opErr, 0, "cas requires a key"},
		{"cas conflict", appendVerFrame(nil, opCAS, 0, 0, "k", 6, 0, []byte("x")), opCASResp, 0, string(appendVerPayload(nil, 7, 0, nil))},
		{"op 0x83", appendFrame(nil, &frame{op: 0x83, key: "k"}), opErr, 0, "unknown op 0x83"},
		{"get after 0x83", appendFrame(nil, &frame{op: opGetV, key: "k"}), opValueV, 0, string(appendVerPayload(nil, 7, 0, []byte("seven")))},
		{"op 0x81", appendFrame(nil, &frame{op: 0x81, key: "k"}), opErr, 0, "unknown op 0x81"},
		{"get after 0x81", appendFrame(nil, &frame{op: opGetV, key: "k"}), opValueV, 0, string(appendVerPayload(nil, 7, 0, []byte("seven")))},
	}
	for _, mode := range []struct {
		name  string
		delay func() time.Duration
	}{
		{"read loop", nil},
		{"parked", func() time.Duration { return time.Millisecond }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			_, addr := startServerDelay(t, mode.delay)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i, rq := range reqs {
				binary.BigEndian.PutUint64(rq.req[1:9], uint64(i+1))
				if _, err := conn.Write(rq.req); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				var f frame
				if err := readFrame(r, &f); err != nil {
					t.Fatalf("%s: %v", rq.name, err)
				}
				if f.op != rq.op || f.tag != uint64(i+1) || f.aux != rq.aux || string(f.val) != rq.val {
					t.Errorf("%s: reply op %#x tag %d aux %d value %q, want op %#x tag %d aux %d value %q",
						rq.name, f.op, f.tag, f.aux, f.val, rq.op, i+1, rq.aux, rq.val)
				}
			}
		})
	}
}

// TestAsyncCASDetachedTail: with a write quorum of one, the primary's
// answer to a CAS is the whole quorum. The call returns without waiting
// for the copy to the second owner, which still lands — or, with that
// owner down, is reported missed. The call must return within half the
// second owner's stall.
func TestAsyncCASDetachedTail(t *testing.T) {
	const stall = 250 * time.Millisecond
	var slow atomic.Int32
	slow.Store(-1)
	sc, servers, muxes := startAsyncShards(t, 2, ShardedConfig{Replication: 2, WriteQuorum: 1}, 5*time.Second,
		func(i int) func() time.Duration {
			return func() time.Duration {
				if int32(i) == slow.Load() {
					return stall
				}
				return 0
			}
		})
	warmPuts(t, sc, muxes)
	sink := &recordingSink{}
	sc.SetRepairSink(sink)
	ctx := context.Background()
	second := muxIndex(t, muxes, sc.Owners("k")[1])
	slow.Store(int32(second))
	began := time.Now()
	ver, err := sc.CAS(ctx, "k", []byte("v1"), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(began); waited > stall/2 {
		t.Errorf("CAS took %v: it waited on the second owner's %v stall", waited, stall)
	}
	if holds(servers[second], "k", ver) {
		t.Error("the second owner already holds the write: the tail was not caught in flight")
	}
	drained(t, muxes)
	if !holds(servers[second], "k", ver) {
		t.Errorf("the second owner never got version %d", ver)
	}

	servers[second].Close()
	if _, err := sc.CAS(ctx, "k", []byte("v2"), 0, ver); err != nil {
		t.Fatalf("CAS with the second owner down: %v", err)
	}
	want := "k@" + muxes[second].Addr()
	deadline := time.Now().Add(versionedStragglerTimeout + 2*time.Second)
	for {
		sink.mu.Lock()
		missed := append([]string(nil), sink.missed...)
		sink.mu.Unlock()
		if len(missed) == 1 && missed[0] == want {
			return
		}
		if len(missed) > 1 || time.Now().After(deadline) {
			t.Fatalf("missed writes %v, want exactly %q", missed, want)
		}
		time.Sleep(time.Millisecond)
	}
}
