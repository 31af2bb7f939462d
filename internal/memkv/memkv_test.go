package memkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

func TestClientBinaryValues(t *testing.T) {
	_, cl := startMux(t)
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
	_, cl := startMux(t)
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
	_, cl := startMux(t)
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
	cl := NewMuxClient("127.0.0.1:1", time.Second)
	defer cl.Close()
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
	srv, cl := startMux(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := cl.Set(ctx, key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.AcceptedConns(); n != 1 {
		t.Errorf("sequential requests used %d connections, want 1", n)
	}
}

func TestClientConcurrent(t *testing.T) {
	_, cl := startMux(t)
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
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Get(ctx, "k")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get against a delayed server with a short deadline = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("deadline not honored promptly")
	}
}

func TestClientStopsReadingOnCancel(t *testing.T) {
	// The client is blocked on a delayed response with a generous
	// request timeout; cancelling the context must abandon the wait
	// immediately — what a single-copy call, which runs on the caller's
	// goroutine under the caller's context, relies on to return.
	_, addr := startServerDelay(t, func() time.Duration { return time.Minute })
	cl := NewMuxClient(addr, 10*time.Minute)
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

// readReply reads one frame off a raw connection within a second.
func readReply(t *testing.T, conn net.Conn) (frame, error) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	var f frame
	err := readFrame(bufio.NewReader(conn), &f)
	return f, err
}

func TestServerRejectsGarbage(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A well-formed frame with an op the server does not know is
	// answered with an error on its tag; the connection lives on.
	conn.Write(appendFrame(nil, &frame{op: 0xFF, tag: 7, key: "k"}))
	if f, err := readReply(t, conn); err != nil || f.op != opErr || f.tag != 7 {
		t.Fatalf("unknown op reply = (%+v, %v), want opErr on tag 7", f, err)
	}
	// So is a request the server can parse but not execute.
	conn.Write(appendFrame(nil, &frame{op: opPutV, tag: 8, key: "k", val: []byte("short")}))
	if f, err := readReply(t, conn); err != nil || f.op != opErr || f.tag != 8 {
		t.Fatalf("bad putv reply = (%+v, %v), want opErr on tag 8", f, err)
	}
	// A header that breaks the protocol's limits cannot be skipped over:
	// the server drops the connection.
	bad := appendFrame(nil, &frame{op: opGetV, tag: 9, key: "k"})
	bad[13], bad[14] = 0xFF, 0xFF // klen = 65535 > maxKeyLen
	conn.Write(bad)
	if f, err := readReply(t, conn); err == nil {
		t.Fatalf("after an oversize key length the server answered %+v, want the connection closed", f)
	}
}

// TestServerClosesNonFrameConn: a peer whose first byte is not a frame
// op — here a memcached text command, too short to fill a frame header
// — is closed at once with no reply, and the listener keeps serving.
func TestServerClosesNonFrameConn(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "get k\r\n")
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err != io.EOF {
		t.Fatalf("text command got %d reply bytes, err %v; want 0 bytes and EOF within 1s", n, err)
	}
	cl := NewMuxClient(addr, time.Second)
	defer cl.Close()
	if err := cl.Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("listener stopped serving after a non-frame connection: %v", err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	// A call is pending on a request the server has parked for a minute:
	// Close must fail it, not wait the delay out.
	parked := make(chan struct{}, 1)
	srv, addr := startServerDelay(t, func() time.Duration {
		parked <- struct{}{}
		return time.Minute
	})
	cl := NewMuxClient(addr, 10*time.Minute)
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		_, err := cl.Get(context.Background(), "k")
		done <- err
	}()
	<-parked
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Close took %v with a delayed request parked", el)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrMuxConnLost) {
			t.Errorf("pending Get = %v, want ErrMuxConnLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending Get still blocked 5s after Server.Close")
	}
	// The server is gone; a fresh request must fail, not hang.
	if _, err := cl.Get(context.Background(), "k"); err == nil {
		t.Error("Get succeeded against closed server")
	}
	// Double close is fine.
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestExpiredKeyReapedOnRead: a read that reaches an item past its
// deadline before the shard's expiry timer does reaps the item itself
// and emits the expire event. The timer fires at the deadline, so the
// test closes the store, which stops it, to hold that window open.
func TestExpiredKeyReapedOnRead(t *testing.T) {
	s := NewStore()
	w := s.Watch("k", 4)
	defer w.Close()
	s.SetTTL("k", 0, []byte("v"), 100*time.Millisecond)
	s.Close()
	if _, _, ok := s.Get("k"); !ok {
		t.Fatal("the item expired within 100ms")
	}
	time.Sleep(110 * time.Millisecond)
	if _, _, ok := s.Get("k"); ok {
		t.Fatal("an item past its deadline is readable")
	}
	if s.Len() != 0 {
		t.Fatalf("the read left the expired item in place: Len = %d", s.Len())
	}
	for _, want := range []EventType{EventPut, EventExpire} {
		if ev := <-w.Events(); ev.Type != want || ev.Key != "k" {
			t.Fatalf("event %+v, want %v on k", ev, want)
		}
	}
}

func TestTTLExpiry(t *testing.T) {
	_, cl := startMux(t)
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
	_, cl := startMux(t)
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

// TestServerAbortStatExposed: a delayed request whose client went away
// is dropped when its delay elapses, and the count is readable remotely.
func TestServerAbortStatExposed(t *testing.T) {
	parked := make(chan struct{})
	var calls atomic.Int64
	srv, addr := startServerDelay(t, func() time.Duration {
		if calls.Add(1) == 1 {
			close(parked)
			return 250 * time.Millisecond // long enough for the server to see the close first
		}
		return 0
	})
	gone := NewMuxClient(addr, time.Minute)
	go gone.Get(context.Background(), "k")
	<-parked
	gone.Close()
	if got := waitCounter(t, srv.aborted.Load, 1); got != 1 {
		t.Fatalf("aborted = %d, want 1", got)
	}
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	stats, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats["aborted_ops"] != 1 {
		t.Errorf("aborted_ops = %d, want 1: %+v", stats["aborted_ops"], stats)
	}
}
