package memkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

// startServer launches a server on a loopback port and returns its address
// and a cleanup-registered handle.
func startServer(t *testing.T) (*Server, string) {
	return startServerDelay(t, nil)
}

// startServerDelay starts a server with a Delay hook installed BEFORE
// Listen: connection handlers read Delay without synchronization, so
// assigning it after the server is running is a data race.
func startServerDelay(t *testing.T, delay func() time.Duration) (*Server, string) {
	t.Helper()
	srv := NewServer(nil)
	srv.Delay = delay
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Get("missing"); ok {
		t.Error("Get on empty store returned ok")
	}
	s.Set("k", 7, []byte("hello"))
	v, flags, ok := s.Get("k")
	if !ok || string(v) != "hello" || flags != 7 {
		t.Errorf("Get = (%q, %d, %v)", v, flags, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	if !s.Delete("k") {
		t.Error("Delete returned false for present key")
	}
	if s.Delete("k") {
		t.Error("Delete returned true for absent key")
	}
}

func TestStoreValueIsolation(t *testing.T) {
	s := NewStore()
	buf := []byte("abc")
	s.Set("k", 0, buf)
	buf[0] = 'X' // mutating the caller's slice must not affect the store
	v, _, _ := s.Get("k")
	if string(v) != "abc" {
		t.Errorf("stored value aliased caller buffer: %q", v)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d-%d", g, i)
				s.Set(key, 0, []byte(key))
				if v, _, ok := s.Get(key); !ok || string(v) != key {
					t.Errorf("lost write for %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 4000 {
		t.Errorf("Len = %d, want 4000", s.Len())
	}
}

func TestClientSetGetDelete(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()

	if err := cl.Set(ctx, "greeting", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Get(ctx, "greeting")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "hello world" {
		t.Errorf("Get = %q", v)
	}
	if err := cl.Delete(ctx, "greeting"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "greeting"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := cl.Delete(ctx, "greeting"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second Delete = %v, want ErrNotFound", err)
	}
}

func TestClientBinaryValues(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()

	// Values containing \r\n and NULs must round-trip (length-prefixed
	// protocol).
	val := []byte("line1\r\nline2\x00binary\xff")
	if err := cl.Set(ctx, "bin", val); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Errorf("binary value corrupted: %q != %q", got, val)
	}
}

func TestClientEmptyValue(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty value came back as %q", got)
	}
}

func TestClientLargeValue(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	val := bytes.Repeat([]byte("x"), 1<<20)
	if err := cl.Set(ctx, "big", val); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, val) {
		t.Error("1 MB value corrupted")
	}
}

func TestClientKeyValidation(t *testing.T) {
	cl := NewClient("127.0.0.1:1", time.Second)
	ctx := context.Background()
	for _, key := range []string{"", "has space", "has\nnewline", strings.Repeat("k", 251)} {
		if err := cl.Set(ctx, key, nil); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if _, err := cl.Get(ctx, key); err == nil {
			t.Errorf("key %q accepted by Get", key)
		}
	}
}

func TestClientConnectionReuse(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := cl.Set(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 1 {
		t.Errorf("sequential requests used %d connections, want 1 pooled", idle)
	}
}

func TestClientConcurrent(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, 2*time.Second)
	defer cl.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("conc-%d", g)
			if err := cl.Set(ctx, key, []byte(key)); err != nil {
				errs <- err
				return
			}
			v, err := cl.Get(ctx, key)
			if err != nil {
				errs <- err
				return
			}
			if string(v) != key {
				errs <- fmt.Errorf("got %q want %q", v, key)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, addr := startServerDelay(t, func() time.Duration { return 5 * time.Second })
	cl := NewClient(addr, 10*time.Second)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Get(ctx, "k")
	if err == nil {
		t.Fatal("Get succeeded despite delayed server and short deadline")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("deadline not honored promptly")
	}
}

func TestServerMultiGet(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	cl.Set(ctx, "a", []byte("1"))
	cl.Set(ctx, "b", []byte("2"))

	// Raw protocol: multi-key get.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "get a b missing\r\n")
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	n, _ := conn.Read(buf)
	resp := string(buf[:n])
	if !strings.Contains(resp, "VALUE a 0 1") || !strings.Contains(resp, "VALUE b 0 1") {
		t.Errorf("multi-get response missing values: %q", resp)
	}
	if !strings.HasSuffix(resp, "END\r\n") {
		t.Errorf("response not END-terminated: %q", resp)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "frobnicate\r\n")
	buf := make([]byte, 64)
	conn.SetReadDeadline(time.Now().Add(time.Second))
	n, _ := conn.Read(buf)
	if got := string(buf[:n]); got != "ERROR\r\n" {
		t.Errorf("garbage command response %q", got)
	}
	fmt.Fprintf(conn, "set k notanumber 0 3\r\n")
	n, _ = conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "CLIENT_ERROR") {
		t.Errorf("bad set response %q", string(buf[:n]))
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Pooled connection is now dead; the request must fail, not hang.
	_, err := cl.Get(ctx, "k")
	if err == nil {
		t.Error("Get succeeded against closed server")
	}
	// Double close is fine.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestReplicatedClientFirstWins(t *testing.T) {
	// Server A is slow; B is fast.
	_, addrA := startServerDelay(t, func() time.Duration { return 300 * time.Millisecond })
	_, addrB := startServer(t)

	clA := NewClient(addrA, 2*time.Second)
	clB := NewClient(addrB, 2*time.Second)
	rc := NewReplicatedClient(core.Policy{Copies: 2, Selection: core.SelectRandom}, clA, clB)
	defer rc.Close()
	ctx := context.Background()

	if err := rc.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := rc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if time.Since(start) > 250*time.Millisecond {
		t.Errorf("replicated read waited for the slow server: %v", time.Since(start))
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d", res.Launched)
	}
}

func TestReplicatedClientSurvivesDeadReplica(t *testing.T) {
	srvA, addrA := startServer(t)
	_, addrB := startServer(t)
	clA := NewClient(addrA, time.Second)
	clB := NewClient(addrB, time.Second)
	rc := NewReplicatedClient(core.Policy{Copies: 2, Selection: core.SelectRandom}, clA, clB)
	defer rc.Close()
	ctx := context.Background()
	if err := rc.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srvA.Close() // kill one replica
	v, err := rc.Get(ctx, "k")
	if err != nil {
		t.Fatalf("replicated read failed with one dead replica: %v", err)
	}
	if string(v) != "v" {
		t.Errorf("value %q", v)
	}
}

func TestTTLExpiry(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.SetTTL(ctx, "ephemeral", []byte("v"), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "ephemeral"); err != nil {
		t.Fatalf("fresh TTL key missing: %v", err)
	}
	// Store-level check with a direct past-expiry item avoids sleeping in
	// the network test; protocol granularity is 1s.
	s := NewStore()
	s.SetTTL("k", 0, []byte("v"), time.Nanosecond)
	time.Sleep(10 * time.Millisecond)
	if _, _, ok := s.Get("k"); ok {
		t.Error("expired item still readable")
	}
	if s.Len() != 0 {
		// Len counts the lazily-reaped item until Get touches it; after
		// the Get above it must be gone.
		t.Errorf("expired item not reaped: Len = %d", s.Len())
	}
}

func TestTTLZeroNeverExpires(t *testing.T) {
	s := NewStore()
	s.SetTTL("k", 0, []byte("v"), 0)
	time.Sleep(5 * time.Millisecond)
	if _, _, ok := s.Get("k"); !ok {
		t.Error("no-TTL item expired")
	}
}

func TestStatsCounters(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	ctx := context.Background()
	cl.Set(ctx, "a", []byte("1"))
	cl.Set(ctx, "b", []byte("2"))
	cl.Get(ctx, "a")
	cl.Get(ctx, "missing")
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats["cmd_set"] != 2 || stats["cmd_get"] != 2 {
		t.Errorf("cmd counters: %+v", stats)
	}
	if stats["get_hits"] != 1 || stats["get_misses"] != 1 {
		t.Errorf("hit/miss counters: %+v", stats)
	}
	if stats["curr_items"] != 2 {
		t.Errorf("curr_items = %d", stats["curr_items"])
	}
}

func TestAdaptiveReplicatedClient(t *testing.T) {
	// A fast and a deliberately slow replica. Cold digests mean the first
	// read fans out fully; once warm, the hedge waits for the primary's
	// observed p95 and the stats snapshot is self-describing.
	_, fastAddr := startServer(t)
	_, slowAddr := startServerDelay(t, func() time.Duration { return 200 * time.Millisecond })
	clFast := NewClient(fastAddr, 2*time.Second)
	clSlow := NewClient(slowAddr, 2*time.Second)
	rc := NewAdaptiveReplicatedClient(0.95, clFast, clSlow)
	defer rc.Close()
	ctx := context.Background()

	if err := rc.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := rc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if res.Launched != 2 {
		t.Errorf("cold adaptive read launched %d copies, want 2 (immediate fallback)", res.Launched)
	}
	for i := 0; i < 30; i++ {
		if _, err := rc.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	}
	s := rc.GroupStats()
	if !strings.Contains(s.Strategy, "adaptive-hedge") || !strings.Contains(s.Strategy, "p95") {
		t.Errorf("GroupStats.Strategy = %q", s.Strategy)
	}
	warm := false
	for _, r := range s.Replicas {
		if r.Observations >= 16 && r.P95 > 0 && r.P50 <= r.P95 {
			warm = true
		}
	}
	if !warm {
		t.Errorf("no replica digest warmed past MinSamples: %+v", s.Replicas)
	}

	// Strategies swap through the snapshot without disturbing reads.
	rc.SetStrategy(core.FullReplicate{Selection: core.SelectRandom})
	res, err = rc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("full replication launched %d copies", res.Launched)
	}
	if got := rc.GroupStats().Strategy; !strings.Contains(got, "full-replicate") {
		t.Errorf("after SetStrategy: %q", got)
	}
}

func TestReplicatedClientReadQuorum(t *testing.T) {
	// Three replicas; a quorum-2 read succeeds with one dead replica and
	// carries per-replica outcomes, while two dead replicas make the
	// quorum unreachable with named failure detail.
	srvA, addrA := startServer(t)
	srvB, addrB := startServer(t)
	_, addrC := startServer(t)
	clA := NewClient(addrA, time.Second)
	clB := NewClient(addrB, time.Second)
	clC := NewClient(addrC, time.Second)
	rc := NewReplicatedClient(core.Policy{Copies: 3}, clA, clB, clC)
	defer rc.Close()
	ctx := context.Background()
	if err := rc.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}

	var outs []core.Outcome[[]byte]
	res, err := rc.GetResult(ctx, "k", ReadQuorum(2), core.WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
			if string(o.Value) != "v" {
				t.Errorf("quorum outcome value %q", o.Value)
			}
		}
	}
	if wins != 2 {
		t.Errorf("quorum read collected %d wins, want 2", wins)
	}

	srvA.Close() // one dead replica: 2-of-3 still reachable
	if _, err := rc.Get(ctx, "k", ReadQuorum(2)); err != nil {
		t.Fatalf("quorum read with one dead replica: %v", err)
	}

	srvB.Close() // two dead: 2-of-3 unreachable
	_, err = rc.Get(ctx, "k", ReadQuorum(2))
	if !errors.Is(err, core.ErrQuorumUnreachable) {
		t.Fatalf("got %v, want ErrQuorumUnreachable", err)
	}
	var re core.ReplicaError
	if !errors.As(err, &re) || re.Name == "" {
		t.Errorf("quorum failure lacks named replica detail: %v", err)
	}
}

func TestReplicatedClientPerReadLabelAndCap(t *testing.T) {
	_, addrA := startServer(t)
	_, addrB := startServer(t)
	clA := NewClient(addrA, time.Second)
	clB := NewClient(addrB, time.Second)
	rc := NewReplicatedClient(core.Policy{Copies: 2}, clA, clB)
	defer rc.Close()
	ctx := context.Background()
	if err := rc.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err := rc.GetResult(ctx, "k", core.WithFanoutCap(1), core.WithLabel("prefetch"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("capped read launched %d copies, want 1", res.Launched)
	}
}

// waitCounter polls an atomic-backed getter until it reaches want and
// returns the final value at once; the 30 s bound only keeps a broken
// build from hanging, and is wide enough that a box loaded by the rest
// of the suite cannot turn a slow wake-up into a failure. Polling a
// monotone counter is race-free (the assertion is on the final value,
// not the timing).
func waitCounter(t *testing.T, get func() int64, want int64) int64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for get() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return get()
}

func TestServerAbortsDelayedWorkWhenClientGone(t *testing.T) {
	// The server is mid-delay when its client disconnects: it must abandon
	// the request (and count it) instead of sleeping out the full delay.
	srv, addr := startServerDelay(t, func() time.Duration { return time.Minute })
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "get k\r\n")
	conn.Close()
	if got := waitCounter(t, srv.aborted.Load, 1); got != 1 {
		t.Fatalf("aborted_ops = %d, want 1 (server slept out the delay?)", got)
	}
	// Close must not wait out the minute-long delay either.
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Close took %v with an aborted delayed request", el)
	}
}

func TestServerAbortStatExposed(t *testing.T) {
	_, addr := startServer(t)
	cl := NewClient(addr, time.Second)
	defer cl.Close()
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["aborted_ops"]; !ok {
		t.Errorf("stats missing aborted_ops: %+v", stats)
	}
}

func TestClientStopsReadingOnCancel(t *testing.T) {
	// The client is blocked reading a delayed response with a generous
	// request timeout; cancelling the context must abandon the read
	// immediately — the cancellation path the redundancy engine relies on
	// to reclaim losing copies.
	_, addr := startServerDelay(t, func() time.Duration { return time.Minute })
	cl := NewClient(addr, 10*time.Minute)
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, gerr := cl.Get(ctx, "k")
		done <- gerr
	}()
	cancel()
	select {
	case gerr := <-done:
		if !errors.Is(gerr, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", gerr)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("cancelled Get returned after %v", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get still blocked after 5s")
	}
}

func TestReplicatedClientCancelsLosingCopy(t *testing.T) {
	// End-to-end copy cancellation: a fast and a stalled replica, full
	// fan-out. The fast replica wins, the loser is cancelled in flight,
	// the client abandons its read, and the stalled server aborts the
	// delayed request — capacity reclaimed at every layer.
	//
	// The fast server holds its reply until the stalled one has the
	// loser's request in hand: a winner that answers before the losing
	// copy has written anything cancels a copy no server ever saw, and
	// there is nothing for the stalled server to abort.
	slowParked := make(chan struct{})
	var parkOnce sync.Once
	var raceOn atomic.Bool
	_, fastAddr := startServerDelay(t, func() time.Duration {
		if raceOn.Load() {
			<-slowParked
		}
		return 0
	})
	slowSrv, slowAddr := startServerDelay(t, func() time.Duration {
		parkOnce.Do(func() { close(slowParked) })
		return time.Minute
	})
	clFast := NewClient(fastAddr, 10*time.Minute)
	clSlow := NewClient(slowAddr, 10*time.Minute)
	rc := NewReplicatedClient(core.Policy{Copies: 2}, clFast, clSlow)
	defer rc.Close()
	ctx := context.Background()
	if err := clFast.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	raceOn.Store(true)

	start := time.Now()
	res, err := rc.GetResult(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Value) != "v" {
		t.Errorf("value %q", res.Value)
	}
	if res.Launched != 2 || res.Cancelled != 1 {
		t.Errorf("Launched/Cancelled = %d/%d, want 2/1", res.Launched, res.Cancelled)
	}
	// Waiting out the stalled replica would take the injected minute; the
	// comparison is against that, not against how fast a loaded box
	// schedules the winner.
	if el := time.Since(start); el >= 30*time.Second {
		t.Errorf("read took %v; the stalled replica was waited out", el)
	}
	// The stalled server saw its client vanish and abandoned the request.
	if got := waitCounter(t, slowSrv.aborted.Load, 1); got < 1 {
		t.Errorf("slow server aborted_ops = %d, want >= 1", got)
	}
	// The group's stats record the reclaimed copy against the replica.
	cancelled := func() int64 {
		n := int64(0)
		for _, r := range rc.GroupStats().Replicas {
			n += r.Cancelled
		}
		return n
	}
	if got := waitCounter(t, cancelled, 1); got < 1 {
		t.Errorf("no replica recorded a cancelled copy: %+v", rc.GroupStats().Replicas)
	}
}
