package dnswire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
)

func TestMuxQueryRoundTrip(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	m := NewMuxClient(time.Second)
	defer m.Close()
	resp, err := m.Query(context.Background(), addr, "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp %+v", resp.Header)
	}
	if !net.IP(resp.Answers[0].IP).Equal(net.IPv4(192, 0, 2, 10)) {
		t.Errorf("answer IP %v", resp.Answers[0].IP)
	}
}

// TestMuxZeroValueClient is a regression test: a zero-value &MuxClient{}
// must get the documented 2-second default timeout, not arm a 0-delay
// wheel timer that fails every query with ErrMuxTimeout on the next
// tick (and its nil conns map must be initialized lazily).
func TestMuxZeroValueClient(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	m := &MuxClient{}
	defer m.Close()
	resp, err := m.Query(context.Background(), addr, "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp %+v", resp.Header)
	}
}

func TestMuxSharesOneSocketPerServer(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	m := NewMuxClient(time.Second)
	defer m.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 100)
	for range 100 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Query(context.Background(), addr, "www.example.com", TypeA); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	m.mu.Lock()
	n := len(m.conns)
	m.mu.Unlock()
	if n != 1 {
		t.Fatalf("client opened %d sockets for one server, want 1", n)
	}
}

func TestMuxOutOfOrderAnswers(t *testing.T) {
	var first atomic.Bool
	first.Store(true)
	_, addr := startDNSDelay(t, staticZone(), func() time.Duration {
		if first.CompareAndSwap(true, false) {
			return 300 * time.Millisecond
		}
		return 0
	})
	m := NewMuxClient(2 * time.Second)
	defer m.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := m.Query(context.Background(), addr, "www.example.com", TypeA)
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query claim the delay

	start := time.Now()
	if _, err := m.Query(context.Background(), addr, "mail.example.com", TypeA); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("fast query blocked %v behind the delayed one", el)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("slow query: %v", err)
	}
}

func TestMuxTimeoutKeepsSocket(t *testing.T) {
	var delay atomic.Int64
	delay.Store(int64(500 * time.Millisecond))
	_, addr := startDNSDelay(t, staticZone(), func() time.Duration {
		return time.Duration(delay.Load())
	})
	m := NewMuxClient(50 * time.Millisecond)
	defer m.Close()
	_, err := m.Query(context.Background(), addr, "www.example.com", TypeA)
	if !errors.Is(err, ErrMuxTimeout) {
		t.Fatalf("err = %v, want ErrMuxTimeout", err)
	}
	// The socket must survive a timeout: the next query succeeds on the
	// same connection.
	delay.Store(0)
	if _, err := m.Query(context.Background(), addr, "www.example.com", TypeA); err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	m.mu.Lock()
	n := len(m.conns)
	m.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d sockets after timeout, want the original 1", n)
	}
}

func TestMuxCancelMidFlight(t *testing.T) {
	_, addr := startDNSDelay(t, staticZone(), func() time.Duration {
		return 300 * time.Millisecond
	})
	m := NewMuxClient(2 * time.Second)
	defer m.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Query(ctx, addr, "www.example.com", TypeA)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMuxCloseFailsPending(t *testing.T) {
	_, addr := startDNSDelay(t, staticZone(), func() time.Duration {
		return 5 * time.Second
	})
	m := NewMuxClient(30 * time.Second)
	done := make(chan error, 8)
	for range 8 {
		go func() {
			_, err := m.Query(context.Background(), addr, "www.example.com", TypeA)
			done <- err
		}()
	}
	time.Sleep(50 * time.Millisecond)
	m.Close()
	for range 8 {
		if err := <-done; !errors.Is(err, ErrMuxConnLost) {
			t.Fatalf("err = %v, want ErrMuxConnLost", err)
		}
	}
	if _, err := m.Query(context.Background(), addr, "www.example.com", TypeA); err == nil {
		t.Fatal("query on closed client succeeded")
	}
}

func TestMuxResolverIntegration(t *testing.T) {
	_, addr1 := startDNS(t, staticZone())
	_, addr2 := startDNS(t, staticZone())
	m := NewMuxClient(time.Second)
	defer m.Close()
	r := NewResolver(m, core.Fixed{Copies: 2}, addr1, addr2)
	for range 20 {
		ips, err := r.LookupA(context.Background(), "www.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if len(ips) != 1 || !ips[0].Equal(net.IPv4(192, 0, 2, 10)) {
			t.Fatalf("ips = %v", ips)
		}
	}
	// Both servers share the client: one socket each.
	m.mu.Lock()
	n := len(m.conns)
	m.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d sockets for 2 servers, want 2", n)
	}
}

func TestMuxConcurrentStorm(t *testing.T) {
	var n atomic.Uint64
	_, addr := startDNSDelay(t, staticZone(), func() time.Duration {
		if n.Add(1)%7 == 0 {
			return 20 * time.Millisecond
		}
		return 0
	})
	m := NewMuxClient(time.Second)
	defer m.Close()
	var wg sync.WaitGroup
	errc := make(chan error, 8*40)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 40 {
				ctx := context.Background()
				if (g+i)%11 == 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					go func() {
						time.Sleep(time.Millisecond)
						cancel()
					}()
				}
				_, err := m.Query(ctx, addr, "www.example.com", TypeA)
				if err != nil && !errors.Is(err, context.Canceled) {
					errc <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
