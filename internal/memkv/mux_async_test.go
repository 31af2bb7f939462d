package memkv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// These tests pin the non-blocking read path: MuxClient as a
// core.Starter (Start/Cancel, completions from the reader, the timeout
// timer and fail), the reader skipping replies nobody waits for, and
// ShardedClient launching redundant reads as wire requests — for the
// concrete *MuxClient only. Run with -race -count=5.

// startAsyncShards launches n live servers, each with the given Delay
// hook, and a ShardedClient over one MuxClient per server.
func startAsyncShards(t *testing.T, n int, cfg ShardedConfig, timeout time.Duration, delay func(i int) func() time.Duration) (*ShardedClient, []*Server, []*MuxClient) {
	t.Helper()
	servers := make([]*Server, n)
	muxes := make([]*MuxClient, n)
	backends := make([]Backend, n)
	for i := range servers {
		var d func() time.Duration
		if delay != nil {
			d = delay(i)
		}
		srv, addr := startServerDelay(t, d)
		servers[i] = srv
		muxes[i] = NewMuxClient(addr, timeout)
		backends[i] = muxes[i]
	}
	sc := NewShardedClient(cfg, backends...)
	t.Cleanup(func() { closeAll(backends) })
	return sc, servers, muxes
}

// muxIndex returns the position of the client for addr.
func muxIndex(t *testing.T, muxes []*MuxClient, addr string) int {
	t.Helper()
	for i, m := range muxes {
		if m.Addr() == addr {
			return i
		}
	}
	t.Fatalf("no client for %s", addr)
	return -1
}

// pendingTags counts the requests registered on the client's
// connection.
func pendingTags(m *MuxClient) int {
	cn := m.cn.Load()
	if cn == nil {
		return 0
	}
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return len(cn.waiters)
}

// readSink is a core.Sink that keeps every completion by slot. It takes
// a reply as dropped once a test has declared its call settled.
type readSink struct {
	settled atomic.Bool
	mu      sync.Mutex
	got     map[int][]sinkResult
	each    chan struct{} // one token per completion
}

type sinkResult struct {
	val     []byte
	ver     uint64
	err     error
	dropped bool
}

func newReadSink(buffer int) *readSink {
	return &readSink{got: make(map[int][]sinkResult), each: make(chan struct{}, buffer)}
}

func (s *readSink) Complete(slot int, v Versioned, err error) {
	s.record(slot, sinkResult{val: v.Value, ver: v.Version, err: err})
}

func (s *readSink) Drop(slot int) bool {
	if !s.settled.Load() {
		return false
	}
	s.record(slot, sinkResult{dropped: true})
	return true
}

func (s *readSink) record(slot int, r sinkResult) {
	s.mu.Lock()
	s.got[slot] = append(s.got[slot], r)
	s.mu.Unlock()
	s.each <- struct{}{}
}

func (s *readSink) wait(t *testing.T) {
	t.Helper()
	select {
	case <-s.each:
	case <-time.After(5 * time.Second):
		t.Fatal("started read never completed")
	}
}

func (s *readSink) results(slot int) []sinkResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sinkResult(nil), s.got[slot]...)
}

// TestAsyncShardedGetSpawnsNoGoroutine: over two live servers a 2-copy
// ShardedClient.Get is two wire requests started on the caller's
// goroutine — ten thousand of them start no goroutine, and each returns
// its own key's value.
func TestAsyncShardedGetSpawnsNoGoroutine(t *testing.T) {
	sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{}, 5*time.Second, nil)
	ctx := context.Background()
	const keys = 64
	for k := 0; k < keys; k++ {
		if _, err := sc.PutVersioned(ctx, fmt.Sprint("k", k), []byte(fmt.Sprint("v", k)), 0); err != nil {
			t.Fatal(err)
		}
	}
	get := func(i int) {
		k := i % keys
		v, err := sc.Get(ctx, fmt.Sprint("k", k))
		if err != nil || string(v) != fmt.Sprint("v", k) {
			t.Fatalf("Get(k%d) = (%q, %v)", k, v, err)
		}
	}
	for i := 0; i < 100; i++ {
		get(i) // connections dialed, frame pool warm
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		get(i)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("call %d: %d goroutines, %d before the calls", i, n, base)
		}
	}
	st := sc.RingStats()
	var cancelled int64
	for _, m := range st.Members {
		cancelled += m.Cancelled
	}
	t.Logf("10100 reads, 20200 copies, %d losers withdrawn before their reply was claimed", cancelled)
	for _, m := range muxes {
		if n := pendingTags(m); n != 0 {
			t.Errorf("%s: %d tags still registered after every call returned", m.Addr(), n)
		}
	}
}

// jitter returns a Delay hook that busy-waits up to maxSpin before the
// server answers, without parking the reply on a timer: replies
// scatter by microseconds, so the loser's reply of a 2-copy read lands
// before, inside and after the winner's cancel window.
func jitter(seed int64, maxSpin time.Duration) func() time.Duration {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() time.Duration {
		mu.Lock()
		spin := time.Duration(rng.Int63n(int64(maxSpin)))
		mu.Unlock()
		for t0 := time.Now(); time.Since(t0) < spin; {
			runtime.Gosched()
		}
		return 0
	}
}

// TestAsyncCancelRacesDeliver races Cancel against the reply ten
// thousand times. Directly on one client: every started read is either
// withdrawn (Cancel true) or completed, exactly once and never both.
// Then through the ShardedClient from several callers: every read
// returns its own key's value — a frame released twice or recycled under
// a completion still on its way would hand one call another's — and no
// tag is left registered.
func TestAsyncCancelRacesDeliver(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		_, addr := startServerDelay(t, jitter(1, 40*time.Microsecond))
		cl := NewMuxClient(addr, 5*time.Second)
		defer cl.Close()
		ctx := context.Background()
		if err := cl.Set(ctx, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		const n = 10000
		sink := newReadSink(n)
		withdrawn := make([]bool, n)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < n; i++ {
			tk, ok := cl.Start("k", sink, i)
			if !ok {
				t.Fatalf("Start %d declined on a live connection", i)
			}
			// A loopback round trip is some tens of microseconds: cancel
			// anywhere from at once to well after the reply.
			spin := time.Duration(rng.Int63n(int64(300 * time.Microsecond)))
			for t0 := time.Now(); time.Since(t0) < spin; {
				runtime.Gosched()
			}
			withdrawn[i] = cl.Cancel(tk)
			if cl.Cancel(tk) {
				t.Fatalf("read %d withdrawn twice", i)
			}
		}
		// One connection, and the server answers a connection's requests in
		// order: once this read returns, every earlier reply has been
		// through the reader.
		if _, err := cl.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		var nWithdrawn int
		for i := 0; i < n; i++ {
			rs := sink.results(i)
			switch {
			case withdrawn[i] && len(rs) != 0:
				t.Fatalf("read %d completed after Cancel reported it withdrawn", i)
			case !withdrawn[i] && (len(rs) != 1 || rs[0].err != nil || string(rs[0].val) != "v"):
				t.Fatalf("read %d not withdrawn, completions %+v; want exactly one with the value", i, rs)
			}
			if withdrawn[i] {
				nWithdrawn++
			}
		}
		if nWithdrawn == 0 || nWithdrawn == n {
			t.Errorf("%d of %d reads withdrawn: the race never went both ways", nWithdrawn, n)
		}
		if got := pendingTags(cl); got != 0 {
			t.Errorf("%d tags still registered", got)
		}
		t.Logf("%d of %d reads withdrawn before their reply", nWithdrawn, n)
	})

	t.Run("sharded", func(t *testing.T) {
		sc, _, muxes := startAsyncShards(t, 2, ShardedConfig{}, 5*time.Second, func(i int) func() time.Duration {
			return jitter(int64(i), 40*time.Microsecond)
		})
		ctx := context.Background()
		const keys, callers, calls = 64, 4, 2500
		for k := 0; k < keys; k++ {
			if _, err := sc.PutVersioned(ctx, fmt.Sprint("k", k), []byte(fmt.Sprint("v", k)), 0); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					k := (c*calls + i) % keys
					v, err := sc.Get(ctx, fmt.Sprint("k", k))
					if err != nil || string(v) != fmt.Sprint("v", k) {
						t.Errorf("Get(k%d) = (%q, %v)", k, v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		var cancelled int64
		for _, m := range sc.RingStats().Members {
			cancelled += m.Cancelled
		}
		if cancelled == 0 || cancelled == callers*calls {
			t.Errorf("%d of %d losers withdrawn: the race never went both ways", cancelled, callers*calls)
		}
		for _, m := range muxes {
			if n := pendingTags(m); n != 0 {
				t.Errorf("%s: %d tags still registered after every call returned", m.Addr(), n)
			}
		}
	})
}

// TestAsyncStartedReadFailures: a started read in flight completes with
// ErrMuxTimeout when the per-request timeout fires, and with
// ErrMuxConnLost when the client is closed or the server dies; through
// the ShardedClient each of those is one failed copy, and the read falls
// through to the key's surviving owner.
func TestAsyncStartedReadFailures(t *testing.T) {
	stall := func(int) func() time.Duration { return func() time.Duration { return 3 * time.Second } }
	type env struct {
		cl  *MuxClient
		srv *Server
	}
	direct := []struct {
		name    string
		timeout time.Duration
		breakIt func(env)
		want    error
	}{
		{"timeout", 50 * time.Millisecond, func(env) {}, ErrMuxTimeout},
		{"client closed", 10 * time.Second, func(e env) { e.cl.Close() }, ErrMuxConnLost},
		{"server killed", 10 * time.Second, func(e env) { e.srv.Close() }, ErrMuxConnLost},
	}
	for _, tc := range direct {
		t.Run("direct/"+tc.name, func(t *testing.T) {
			srv, addr := startServerDelay(t, stall(0))
			cl := NewMuxClient(addr, tc.timeout)
			defer cl.Close()
			// The first request dials; it is cancelled, not waited out.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			cl.Get(ctx, "warm")
			cancel()
			sink := newReadSink(1)
			tk, ok := cl.Start("k", sink, 7)
			if !ok {
				t.Fatal("Start declined on a live connection")
			}
			tc.breakIt(env{cl, srv})
			sink.wait(t)
			rs := sink.results(7)
			if len(rs) != 1 || !errors.Is(rs[0].err, tc.want) {
				t.Fatalf("completions %+v, want one wrapping %v", rs, tc.want)
			}
			if cl.Cancel(tk) {
				t.Error("Cancel withdrew a read that had already completed")
			}
			if n := pendingTags(cl); n != 0 {
				t.Errorf("%d tags still registered", n)
			}
		})
	}

	sharded := []struct {
		name    string
		timeout time.Duration
		breakIt func(env)
		want    error
	}{
		{"timeout", 100 * time.Millisecond, func(env) {}, ErrMuxTimeout},
		{"client closed", 10 * time.Second, func(e env) { e.cl.Close() }, ErrMuxConnLost},
		{"server killed", 10 * time.Second, func(e env) { e.srv.Close() }, ErrMuxConnLost},
	}
	for _, tc := range sharded {
		t.Run("sharded/"+tc.name, func(t *testing.T) {
			// Copy 0 goes out alone (the hedge is an hour away), to a
			// primary that stalls; when it fails, the engine launches the
			// second owner at once.
			var stalled atomic.Int32
			stalled.Store(-1)
			sc, servers, muxes := startAsyncShards(t, 2,
				ShardedConfig{ReadStrategy: core.Fixed{Copies: 2, HedgeDelay: time.Hour}}, tc.timeout,
				func(i int) func() time.Duration {
					return func() time.Duration {
						if int32(i) == stalled.Load() {
							return 3 * time.Second
						}
						return 0
					}
				})
			ctx := context.Background()
			if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ { // both connections dialed
				if _, err := sc.Get(ctx, "k", core.WithStrategyOverride(core.Fixed{Copies: 2})); err != nil {
					t.Fatal(err)
				}
			}
			primary := muxIndex(t, muxes, sc.Owners("k")[0])
			stalled.Store(int32(primary))
			var outs []core.Outcome[Versioned]
			done := make(chan struct{})
			var res core.Result[Versioned]
			var err error
			go func() {
				defer close(done)
				res, err = sc.GetResult(ctx, "k", core.WithCollectOutcomes(&outs))
			}()
			// Break the primary once its copy is registered and in flight.
			deadline := time.Now().Add(5 * time.Second)
			for pendingTags(muxes[primary]) == 0 {
				if time.Now().After(deadline) {
					t.Fatal("the primary's copy was never started")
				}
				time.Sleep(time.Millisecond)
			}
			tc.breakIt(env{muxes[primary], servers[primary]})
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("read did not fall through to the surviving owner")
			}
			if err != nil || string(res.Value.Value) != "v" || res.Index != 1 || res.Launched != 2 {
				t.Fatalf("GetResult = (%+v, %v), want v from copy 1 after 2 launched", res, err)
			}
			if len(outs) != 2 || !errors.Is(outs[0].Err, tc.want) || outs[1].Err != nil {
				t.Fatalf("outcomes %+v, want copy 0 failing with %v then copy 1's value", outs, tc.want)
			}
			var re core.ReplicaError
			if !errors.As(outs[0].Err, &re) || re.Name != muxes[primary].Addr() || re.Attempt != 0 {
				t.Errorf("failed copy's error %v does not name the primary as copy 0", outs[0].Err)
			}
		})
	}
}

// TestAsyncDeclinedStartFallsBack: Start does only what can be done
// without blocking. A connection never dialed, or one the redialer owns,
// declines — and the read still succeeds, that copy running through the
// blocking Get, which dials (or fails fast and leaves the other owner to
// answer).
func TestAsyncDeclinedStartFallsBack(t *testing.T) {
	sc, servers, muxes := startAsyncShards(t, 2, ShardedConfig{}, 5*time.Second, nil)
	ctx := context.Background()
	sink := newReadSink(1)
	for _, m := range muxes {
		if _, ok := m.Start("k", sink, 0); ok {
			t.Fatal("Start accepted with no connection yet")
		}
	}
	// Nothing is dialed yet: both copies of this read are declined and
	// run the blocking way, which dials.
	if _, err := sc.Get(ctx, "k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("first read over undialed connections: %v, want ErrNotFound", err)
	}
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := muxes[0].Start("bad key", sink, 0); ok {
		t.Fatal("Start accepted a key Get would reject")
	}

	// Kill one owner for good: its reconnection goes to the redialer.
	down := 0
	servers[down].Close()
	deadline := time.Now().Add(5 * time.Second)
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
	if _, ok := muxes[down].Start("k", sink, 0); ok {
		t.Fatal("Start accepted while redialing")
	}
	if _, err := muxes[down].Get(ctx, "k"); !errors.Is(err, ErrMuxConnLost) {
		t.Fatalf("blocking Get while redialing: %v, want ErrMuxConnLost", err)
	}
	for i := 0; i < 50; i++ {
		if v, err := sc.Get(ctx, "k"); err != nil || string(v) != "v" {
			t.Fatalf("read %d with one owner in redial = (%q, %v)", i, v, err)
		}
	}
	if len(sink.results(0)) != 0 {
		t.Error("a declined Start completed its sink")
	}
}

// MuxClient is the production Backend.
var _ Backend = (*MuxClient)(nil)

// countingMux is what bench's tracing wrapper is: a Backend that embeds
// the real client — so it has the promoted Start and Cancel, and the
// whole Backend surface — and overrides the read.
type countingMux struct {
	*MuxClient
	getVs atomic.Int64
}

func (c *countingMux) GetV(ctx context.Context, key string) ([]byte, uint64, uint32, error) {
	c.getVs.Add(1)
	return c.MuxClient.GetV(ctx, key)
}

// TestWrappedBackendKeepsFullSurface: a Backend that embeds *MuxClient
// serves versioned quorum reads (through its own GetV), CAS and watches
// through ShardedClient like the bare client does.
func TestWrappedBackendKeepsFullSurface(t *testing.T) {
	var wrapped []*countingMux
	var backends []Backend
	for i := 0; i < 2; i++ {
		_, addr := startServer(t)
		w := &countingMux{MuxClient: NewMuxClient(addr, 5*time.Second)}
		wrapped = append(wrapped, w)
		backends = append(backends, w)
	}
	sc := NewShardedClient(ShardedConfig{}, backends...)
	defer sc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w, err := sc.WatchPrefix(ctx, "k", 16)
	if err != nil {
		t.Fatalf("WatchPrefix over wrapped backends: %v", err)
	}
	ver, err := sc.PutVersioned(ctx, "k", []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.GetResult(ctx, "k", core.WithQuorum(2))
	if val, got := res.Value.Value, res.Value.Version; err != nil || string(val) != "v1" || got != ver {
		t.Fatalf("quorum GetResult = (%q, %d, %v), want (v1, %d)", val, got, err, ver)
	}
	if n := wrapped[0].getVs.Load() + wrapped[1].getVs.Load(); n != 2 {
		t.Errorf("wrappers saw %d GetV calls for a 2-of-2 quorum read, want 2", n)
	}
	ver2, err := sc.CAS(ctx, "k", []byte("v2"), 0, ver)
	if err != nil || ver2 <= ver {
		t.Fatalf("CAS = (%d, %v), want a version above %d", ver2, err, ver)
	}
	if _, err := sc.CAS(ctx, "k", []byte("v3"), 0, ver); !errors.Is(err, ErrCASConflict) {
		t.Errorf("stale CAS = %v, want ErrCASConflict", err)
	}
	for _, want := range []uint64{ver, ver2} {
		select {
		case ev := <-w.Events():
			if ev.Key != "k" || ev.Version != want {
				t.Errorf("watch event %+v, want key k at version %d", ev, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no watch event for version %d", want)
		}
	}
}

// TestAsyncWrapperSeesEveryReadCopy pins the concrete-type rule of
// ShardedClient.AddShard: only a *MuxClient itself has its reads
// started; a wrapper that overrides GetV keeps seeing every read copy.
func TestAsyncWrapperSeesEveryReadCopy(t *testing.T) {
	var wrapped []*countingMux
	var backends []Backend
	for i := 0; i < 2; i++ {
		_, addr := startServer(t)
		w := &countingMux{MuxClient: NewMuxClient(addr, 5*time.Second)}
		wrapped = append(wrapped, w)
		backends = append(backends, w)
	}
	if _, ok := backends[0].(core.Starter[string, Versioned]); !ok {
		t.Fatal("the wrapper does not have the promoted Start/Cancel; the test is vacuous")
	}
	sc := NewShardedClient(ShardedConfig{ReadStrategy: core.Fixed{Copies: 2}}, backends...)
	defer sc.Close()
	ctx := context.Background()
	if _, err := sc.PutVersioned(ctx, "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	const reads = 100
	for i := 0; i < reads; i++ {
		res, err := sc.GetResult(ctx, "k")
		if err != nil || string(res.Value.Value) != "v" || res.Launched != 2 {
			t.Fatalf("GetResult = (%+v, %v)", res, err)
		}
	}
	// A loser's goroutine may still be on its way into GetV.
	deadline := time.Now().Add(2 * time.Second)
	total := func() int64 { return wrapped[0].getVs.Load() + wrapped[1].getVs.Load() }
	for total() != 2*reads && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := total(); got != 2*reads {
		t.Errorf("wrappers saw %d GetV calls for %d two-copy reads, want %d", got, reads, 2*reads)
	}
}

// loopReader serves one byte string over and over.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// TestAsyncAbandonedReplyCostsNothing hand-feeds the reader: a reply
// whose tag nobody is registered for — the loser of a redundant read,
// withdrawn before its reply arrived — is skipped without a single
// allocation, and the stream stays in frame for the replies after it.
func TestAsyncAbandonedReplyCostsNothing(t *testing.T) {
	value := make([]byte, 64)
	for i := range value {
		value[i] = byte(i)
	}
	reply := appendVerFrame(nil, opValueV, 99, 0, "", 5, 0, value)
	cn := &muxConn{wireConn: wireConn{done: make(chan struct{})}, waiters: make(map[uint64]muxEntry)}
	r := bufio.NewReaderSize(&loopReader{b: reply}, 4096)
	avg := testing.AllocsPerRun(1000, func() {
		if err := cn.readOne(r); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 && !coretest.Race() {
		t.Errorf("a reply to an abandoned tag costs %.2f allocations, want 0", avg)
	}
	// The same bytes for a tag somebody started: the value is read and
	// handed over whole.
	sink := newReadSink(1)
	cn.waiters[99] = muxEntry{sink: sink, slot: 3}
	if err := cn.readOne(r); err != nil {
		t.Fatal(err)
	}
	rs := sink.results(3)
	if len(rs) != 1 || rs[0].err != nil || string(rs[0].val) != string(value) || rs[0].ver != 5 {
		t.Fatalf("completions after the skipped replies: %+v", rs)
	}
	if len(cn.waiters) != 0 {
		t.Error("the claimed tag is still registered")
	}
}
