package memkv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startMux(t *testing.T) (*Server, *MuxClient) {
	t.Helper()
	srv, addr := startServer(t)
	cl := NewMuxClient(addr, 5*time.Second)
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestMuxRoundTrip(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()
	if err := cl.Set(ctx, "alpha", []byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("one")) {
		t.Fatalf("got %q", got)
	}
	if _, err := cl.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
}

func TestMuxSetTTLExpires(t *testing.T) {
	_, cl := startMux(t)
	ctx := context.Background()
	if err := cl.SetTTL(ctx, "ephemeral", []byte("x"), time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(ctx, "ephemeral"); err != nil {
		t.Fatal(err)
	}
}

// TestMuxSharesOneConnection: many concurrent requests must not open
// more than the client's one socket — the whole point of multiplexing.
func TestMuxSharesOneConnection(t *testing.T) {
	srv, addr := startServer(t)
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			if err := cl.Set(ctx, key, []byte(key)); err != nil {
				t.Error(err)
				return
			}
			if v, err := cl.Get(ctx, key); err != nil || string(v) != key {
				t.Errorf("get %s = %q, %v", key, v, err)
			}
		}(i)
	}
	wg.Wait()
	srv.mu.Lock()
	open := len(srv.conns)
	srv.mu.Unlock()
	if open != 1 {
		t.Fatalf("server sees %d connections, want 1", open)
	}
}

// TestMuxOutOfOrderResponses: a delayed request must not block later
// requests on the same connection (no head-of-line blocking).
func TestMuxOutOfOrderResponses(t *testing.T) {
	var delayed atomic.Int64
	srv, addr := startServerDelay(t, func() time.Duration {
		if delayed.Add(1) == 1 {
			return 300 * time.Millisecond
		}
		return 0
	})
	_ = srv
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()
	ctx := context.Background()

	slowDone := make(chan time.Time, 1)
	go func() {
		cl.Get(ctx, "slow")
		slowDone <- time.Now()
	}()
	// Give the slow request time to hit the server's Delay hook first.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if _, err := cl.Get(ctx, "fast"); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	fastAt := time.Now()
	if d := fastAt.Sub(start); d > 200*time.Millisecond {
		t.Fatalf("fast request took %v behind a delayed one: head-of-line blocked", d)
	}
	slowAt := <-slowDone
	if !slowAt.After(fastAt) {
		t.Fatal("slow response did not arrive after fast one")
	}
}

// TestMuxCancelMidFlight: cancelling a request abandons its tag — the
// caller returns promptly with ctx.Err(), the connection survives, and
// the late response is discarded, not misdelivered.
func TestMuxCancelMidFlight(t *testing.T) {
	srv, addr := startServerDelay(t, func() time.Duration { return 200 * time.Millisecond })
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()

	if err := func() error {
		ctx, cancel := context.WithCancel(context.Background())
		go func() { time.Sleep(20 * time.Millisecond); cancel() }()
		defer cancel()
		_, err := cl.Get(ctx, "victim")
		return err
	}(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled get: %v, want context.Canceled", err)
	}

	// The connection must survive: the next request reuses it and
	// succeeds (the discarded late response must not corrupt demuxing).
	if _, err := cl.Get(context.Background(), "after"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after cancel: %v, want ErrNotFound", err)
	}
	srv.mu.Lock()
	open := len(srv.conns)
	srv.mu.Unlock()
	if open != 1 {
		t.Fatalf("server sees %d connections after cancel, want 1 (conn must survive)", open)
	}
}

// TestMuxTimeout: a per-request timeout abandons the tag the same way —
// typed error, surviving connection.
func TestMuxTimeout(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	_, addr := startServerDelay(t, func() time.Duration {
		if slow.Load() {
			return 500 * time.Millisecond
		}
		return 0
	})
	cl := NewMuxClient(addr, 50*time.Millisecond)
	defer cl.Close()
	start := time.Now()
	_, err := cl.Get(context.Background(), "slow")
	if !errors.Is(err, ErrMuxTimeout) {
		t.Fatalf("err = %v, want ErrMuxTimeout", err)
	}
	if el := time.Since(start); el > 400*time.Millisecond {
		t.Fatalf("timeout returned after %v, want ~50ms", el)
	}
	slow.Store(false)
	time.Sleep(600 * time.Millisecond) // let the abandoned response arrive and be discarded
	if _, err := cl.Get(context.Background(), "fast"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("get after timeout: %v, want ErrNotFound (conn should survive)", err)
	}
}

// TestMuxServerDisconnectFailsPending: killing the server mid-batch
// fails every pending waiter with an error wrapping ErrMuxConnLost.
func TestMuxServerDisconnectFailsPending(t *testing.T) {
	srv, addr := startServerDelay(t, func() time.Duration { return 5 * time.Second })
	cl := NewMuxClient(addr, 30*time.Second)
	defer cl.Close()
	const n = 16
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := cl.Get(context.Background(), fmt.Sprintf("k%d", i))
			errc <- err
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let all requests reach the server
	srv.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errc:
			if !errors.Is(err, ErrMuxConnLost) {
				t.Fatalf("pending request failed with %v, want ErrMuxConnLost", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("pending request did not fail after server close")
		}
	}
}

// TestMuxRedialsAfterConnLoss: the client redials transparently on the
// next request after its connection died.
func TestMuxRedialsAfterConnLoss(t *testing.T) {
	srv, addr := startServer(t)
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Kill the server's side of the connection; the client's reader fails.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := cl.Get(ctx, "k")
		if err == nil && string(v) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client did not redial: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxStats: the server's counters travel as one request; the
// remote snapshot names all ten and equals the local one.
func TestMuxStats(t *testing.T) {
	srv, cl := startMux(t)
	ctx := context.Background()
	cl.Set(ctx, "a", []byte("1"))
	cl.Get(ctx, "a")
	cl.Get(ctx, "missing")
	cl.Scan(ctx, "", 10)
	cl.PutV(ctx, "a", []byte("old"), 0, 1) // older than the stored version: a stale put
	w, err := cl.Watch(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	got, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"cmd_get": 2, "cmd_set": 2, "cmd_scan": 1, "get_hits": 1, "get_misses": 1,
		"curr_items": 1, "aborted_ops": 0, "stale_puts": 1, "watchers": 1, "watch_disconnects": 0,
	}
	if !maps.Equal(got, want) {
		t.Errorf("MuxClient.Stats = %v\nwant %v", got, want)
	}
	if local := srv.Stats(); !maps.Equal(got, local) {
		t.Errorf("remote snapshot %v != Server.Stats %v", got, local)
	}
	// A payload cut short is an error, not a partial snapshot.
	enc := appendStat(nil, "cmd_get", 2)
	if _, err := decodeStats(enc[:len(enc)-1]); err == nil {
		t.Error("truncated stats payload decoded")
	}
}

// TestMuxConcurrentStorm: a storm of concurrent mixed operations with
// cancellations over one connection, for the race detector.
func TestMuxConcurrentStorm(t *testing.T) {
	_, addr := startServerDelay(t, func() time.Duration { return time.Millisecond })
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("s%d-%d", g, i)
				ctx := context.Background()
				if i%5 == 0 {
					c, cancel := context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
					cl.Get(c, key) // outcome irrelevant; must not race or misdeliver
					cancel()
					continue
				}
				if err := cl.Set(ctx, key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				v, err := cl.Get(ctx, key)
				if err != nil || string(v) != key {
					t.Errorf("get %s = %q, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedClientWithMuxBackends: the sharded store accepts v2
// backends, writes through them and reads many keys at once through the
// ring.
func TestShardedClientWithMuxBackends(t *testing.T) {
	backends := make([]Backend, 3)
	for i := range backends {
		_, addr := startServer(t)
		backends[i] = NewMuxClient(addr, 5*time.Second)
	}
	sc := NewShardedClient(ShardedConfig{Replication: 2}, backends...)
	defer sc.Close()
	keys, vals := batchKeys("mk", 60)
	putAll(t, sc, keys, vals)
	for i, r := range getBatch(sc, keys) {
		if r.Err != nil {
			t.Fatalf("get %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Result.Value.Value, vals[i]) {
			t.Fatalf("get %d = %q, want %q", i, r.Result.Value.Value, vals[i])
		}
	}
}

// TestMuxV2DelayedAbortCounts: a v2 connection closing with requests
// parked on the server counts them as aborted.
func TestMuxV2DelayedAbortCounts(t *testing.T) {
	srv, addr := startServerDelay(t, func() time.Duration { return 150 * time.Millisecond })
	cl := NewMuxClient(addr, 10*time.Second)
	go cl.Get(context.Background(), "parked")
	time.Sleep(50 * time.Millisecond) // request reaches the server and parks
	cl.Close()                        // client connection drops
	deadline := time.Now().Add(3 * time.Second)
	for srv.aborted.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request was not counted as aborted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
