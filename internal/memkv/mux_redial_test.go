package memkv

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// killServerConns closes every server-side socket, breaking every
// client's connection at once.
func killServerConns(srv *Server) {
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
}

// TestMuxBackgroundRedialRepairsStripe: after a connection breaks, the
// client must reconnect in the BACKGROUND — the server sees a fresh
// connection without the client issuing a single request. This is the
// regression test for redial-only-on-next-request: callers that go
// quiet after an error must still find a healed client.
func TestMuxBackgroundRedialRepairsStripe(t *testing.T) {
	srv, addr := startServer(t)
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	old := make(map[any]bool, len(srv.conns))
	for c := range srv.conns {
		old[c] = true
	}
	srv.mu.Unlock()
	killServerConns(srv)
	// No client requests from here on: only the redial loop may dial.
	deadline := time.Now().Add(5 * time.Second)
	for {
		fresh := false
		srv.mu.Lock()
		for c := range srv.conns {
			if !old[c] {
				fresh = true
			}
		}
		srv.mu.Unlock()
		if fresh {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection was not redialed in the background")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the healed connection serves requests (allowing a beat for the
	// client to swap the fresh conn in).
	deadline = time.Now().Add(2 * time.Second)
	for {
		v, err := cl.Get(ctx, "k")
		if err == nil && string(v) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("get after background redial = %q, %v", v, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxRecoversMidStorm: connections are killed repeatedly while a
// storm of concurrent requests is in flight. Individual requests may
// fail with ErrMuxConnLost, but the client as a whole must keep
// recovering without being recreated, and must serve cleanly once the
// storm ends.
func TestMuxRecoversMidStorm(t *testing.T) {
	srv, addr := startServer(t)
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "storm", []byte("v")); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var unexpected sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("storm-%d-%d", g, i)
				if err := cl.Set(ctx, key, []byte("x")); err != nil && !errors.Is(err, ErrMuxConnLost) {
					unexpected.Store(err.Error(), true)
				}
				if _, err := cl.Get(ctx, "storm"); err != nil &&
					!errors.Is(err, ErrMuxConnLost) && !errors.Is(err, ErrNotFound) {
					unexpected.Store(err.Error(), true)
				}
			}
		}(g)
	}
	for k := 0; k < 3; k++ {
		time.Sleep(50 * time.Millisecond)
		killServerConns(srv)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	unexpected.Range(func(k, _ any) bool {
		t.Errorf("storm saw unexpected error: %s", k)
		return true
	})

	// After the storm the client must recover on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := cl.Get(ctx, "storm")
		if err == nil && string(v) == "v" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client did not recover after storm: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMuxFailsFastWhileServerDown: with the server fully gone, requests
// fail promptly (typed, wrapping ErrMuxConnLost or a dial error) rather
// than hanging for the full request timeout; when a server comes back
// on the same address, the backoff redialer reconnects without any help.
func TestMuxFailsFastWhileServerDown(t *testing.T) {
	srv := NewServer(nil)
	laddr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := laddr.String()
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Drive requests until the client settles into fail-fast: once the
	// client is in redial state, a request must return well under the
	// 10s request timeout.
	deadline := time.Now().Add(5 * time.Second)
	for {
		start := time.Now()
		_, err := cl.Get(ctx, "k")
		el := time.Since(start)
		if err == nil {
			t.Fatal("get succeeded against a closed server")
		}
		if errors.Is(err, ErrMuxConnLost) && el < time.Second {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no fail-fast ErrMuxConnLost (last: %v after %v)", err, el)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Resurrect the server on the same address; the redialer must find it.
	srv2 := NewServer(nil)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if err := cl.Set(ctx, "k2", []byte("v2")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the restarted server")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMuxAbandonedDialLeavesStripeUndialed: a first dial given up by its
// caller — the losing copy of a redundant read, cancelled while it was
// still connecting — says nothing about the server, so it must not put
// the client into redial (where requests fail fast with ErrMuxConnLost
// until the backoff loop reconnects). The next request dials afresh.
func TestMuxAbandonedDialLeavesStripeUndialed(t *testing.T) {
	_, cl := startMux(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.conn(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a cancelled context = %v, want context.Canceled", err)
	}
	if err := cl.Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("first request after an abandoned dial: %v", err)
	}
}
