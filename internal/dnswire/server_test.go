package dnswire

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"redundancy/internal/core"
)

func startDNS(t *testing.T, h Handler) (*Server, string) {
	return startDNSDelay(t, h, nil)
}

// startDNSDelay starts a server with a Delay hook installed BEFORE Listen:
// the serve loop reads Delay without synchronization, so assigning it
// after the server is running is a data race.
func startDNSDelay(t *testing.T, h Handler, delay func() time.Duration) (*Server, string) {
	t.Helper()
	srv := NewServer(h)
	srv.Delay = delay
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr.String()
}

func staticZone() Handler {
	return StaticHandler(map[string]net.IP{
		"www.example.com":  net.IPv4(192, 0, 2, 10),
		"mail.example.com": net.IPv4(192, 0, 2, 25),
	})
}

func TestClientServerLookup(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	cl := NewClient(time.Second)
	resp, err := cl.Query(context.Background(), addr, "www.example.com", TypeA)
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

func TestNXDomain(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	cl := NewClient(time.Second)
	resp, err := cl.Query(context.Background(), addr, "missing.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeNameError {
		t.Errorf("RCode %v, want NXDOMAIN", resp.Header.RCode)
	}
}

func TestClientTimeoutOnSilentServer(t *testing.T) {
	// A server that never answers (handler nil answers SERVFAIL, so use a
	// drop-everything server instead).
	srv := NewServer(staticZone())
	srv.DropProb = 1.0
	srv.Rand = func() float64 { return 0 }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(100 * time.Millisecond)
	start := time.Now()
	_, err = cl.Query(context.Background(), addr.String(), "www.example.com", TypeA)
	if err == nil {
		t.Fatal("query against black-hole server succeeded")
	}
	if el := time.Since(start); el < 50*time.Millisecond || el > 2*time.Second {
		t.Errorf("timeout fired after %v, want ~100ms", el)
	}
}

func TestClientIgnoresMismatchedID(t *testing.T) {
	// A malicious/buggy server that answers with a wrong ID first, then
	// never sends the right one: the client must not accept the bad reply.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 4096)
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		query, err := Decode(buf[:n])
		if err != nil {
			return
		}
		bad := NewResponse(query, RCodeSuccess)
		bad.Header.ID ^= 0xFFFF
		wire, _ := Encode(bad)
		pc.WriteTo(wire, from)
	}()
	cl := NewClient(150 * time.Millisecond)
	_, err = cl.Query(context.Background(), pc.LocalAddr().String(), "x.example", TypeA)
	if err == nil {
		t.Fatal("client accepted a response with mismatched ID")
	}
}

func TestServerConcurrentQueries(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	cl := NewClient(2 * time.Second)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Query(context.Background(), addr, "www.example.com", TypeA); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestResolverFirstResponseWins(t *testing.T) {
	_, slowAddr := startDNSDelay(t, staticZone(),
		func() time.Duration { return 400 * time.Millisecond })
	_, fastAddr := startDNS(t, staticZone())

	cl := NewClient(2 * time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 2, Selection: core.SelectRandom}, slowAddr, fastAddr)
	start := time.Now()
	result, err := res.LookupResult(context.Background(), "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 300*time.Millisecond {
		t.Errorf("replicated lookup waited for the slow server: %v", time.Since(start))
	}
	if result.Launched != 2 {
		t.Errorf("Launched = %d", result.Launched)
	}
}

func TestResolverMasksLoss(t *testing.T) {
	// One server drops every query; the replicated resolver still answers.
	lossy := NewServer(staticZone())
	lossy.DropProb = 1.0
	lossy.Rand = func() float64 { return 0 }
	lossyAddr, err := lossy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	_, okAddr := startDNS(t, staticZone())

	cl := NewClient(300 * time.Millisecond)
	res := NewResolver(cl, core.Fixed{Copies: 2, Selection: core.SelectRandom},
		lossyAddr.String(), okAddr)
	ips, err := res.LookupA(context.Background(), "www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 1 || !ips[0].Equal(net.IPv4(192, 0, 2, 10)) {
		t.Errorf("ips = %v", ips)
	}
}

func TestResolverRanksServers(t *testing.T) {
	_, slowAddr := startDNSDelay(t, staticZone(),
		func() time.Duration { return 80 * time.Millisecond })
	_, fastAddr := startDNS(t, staticZone())

	cl := NewClient(2 * time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 2}, slowAddr, fastAddr)
	// Stage 1 of the paper's experiment: probe all servers to rank them.
	if n := res.Probe(context.Background(), "www.example.com", TypeA); n != 2 {
		t.Fatalf("Probe answered by %d servers, want 2", n)
	}
	ranked := res.RankedServers()
	if ranked[0] != fastAddr {
		t.Errorf("ranked %v, want fast server first", ranked)
	}
}

func TestResolverNXDomainIsAnAnswer(t *testing.T) {
	// NXDOMAIN is a valid (authoritative) answer, not an error to fail
	// over from.
	_, addr := startDNS(t, staticZone())
	cl := NewClient(time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 1}, addr)
	_, err := res.LookupA(context.Background(), "nosuch.example.com")
	var nf *NotFoundError
	if err == nil || !isNotFound(err, &nf) {
		t.Errorf("err = %v, want NotFoundError", err)
	}
}

func isNotFound(err error, target **NotFoundError) bool {
	nf, ok := err.(*NotFoundError)
	if ok {
		*target = nf
	}
	return ok
}

func TestServerDropProbabilistic(t *testing.T) {
	srv := NewServer(staticZone())
	r := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	srv.DropProb = 0.5
	srv.Rand = func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return r.Float64()
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(100 * time.Millisecond)
	ok, fail := 0, 0
	for i := 0; i < 30; i++ {
		if _, err := cl.Query(context.Background(), addr.String(), "www.example.com", TypeA); err != nil {
			fail++
		} else {
			ok++
		}
	}
	if ok == 0 || fail == 0 {
		t.Errorf("50%% drop gave ok=%d fail=%d; both should be nonzero", ok, fail)
	}
}

func TestAdaptiveResolver(t *testing.T) {
	_, fastAddr := startDNS(t, staticZone())
	_, slowAddr := startDNSDelay(t, staticZone(),
		func() time.Duration { return 250 * time.Millisecond })

	cl := NewClient(2 * time.Second)
	r := NewResolver(cl, core.AdaptiveHedge{Copies: 2, Quantile: 0.9}, fastAddr, slowAddr)

	// Probe warms every server's digest (racing alone never measures the
	// loser), establishing both the ranking and the hedge quantiles.
	if n := r.Probe(context.Background(), "www.example.com", TypeA); n != 2 {
		t.Fatalf("Probe answered %d, want 2", n)
	}
	for i := 0; i < 20; i++ {
		resp, err := r.Lookup(context.Background(), "www.example.com", TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("lookup %d: %d answers", i, len(resp.Answers))
		}
	}
	s := r.GroupStats()
	if !strings.Contains(s.Strategy, "adaptive-hedge") || !strings.Contains(s.Strategy, "p90") {
		t.Errorf("GroupStats.Strategy = %q", s.Strategy)
	}
	// Ranked selection must have learned the fast server.
	if ranked := r.RankedServers(); ranked[0] != fastAddr {
		t.Errorf("ranked %v, want %s first", ranked, fastAddr)
	}
	for _, rep := range s.Replicas {
		if rep.Observed && (rep.P95 == 0 || rep.P50 > rep.P99) {
			t.Errorf("replica %s quantiles implausible: %+v", rep.Name, rep)
		}
	}

	r.SetStrategy(core.Fixed{Copies: 1, Selection: core.SelectRanked})
	if got := r.GroupStats().Strategy; !strings.Contains(got, "fixed(k=1") {
		t.Errorf("after SetStrategy: %q", got)
	}
}

func TestResolverPerLookupStrategyOverride(t *testing.T) {
	// The resolver is configured to contact one server per lookup; a
	// latency-critical lookup overrides to full replication for itself
	// only.
	_, addrA := startDNS(t, staticZone())
	_, addrB := startDNS(t, staticZone())
	cl := NewClient(2 * time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 1, Selection: core.SelectRandom}, addrA, addrB)

	result, err := res.LookupResult(context.Background(), "www.example.com", TypeA,
		core.WithStrategyOverride(core.FullReplicate{}))
	if err != nil {
		t.Fatal(err)
	}
	if result.Launched != 2 {
		t.Errorf("override lookup queried %d servers, want 2", result.Launched)
	}

	// Without the override the resolver's own policy applies.
	result, err = res.LookupResult(context.Background(), "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if result.Launched != 1 {
		t.Errorf("plain lookup queried %d servers, want 1", result.Launched)
	}
}

func TestResolverQuorumLookup(t *testing.T) {
	// A quorum-2 lookup over two healthy servers completes with both
	// answers collected (the unreachable case is
	// TestResolverQuorumUnreachableNamesServer).
	_, addrA := startDNS(t, staticZone())
	_, addrB := startDNS(t, staticZone())
	cl := NewClient(time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 2}, addrA, addrB)

	var outs []core.Outcome[*Message]
	_, err := res.LookupResult(context.Background(), "www.example.com", TypeA,
		core.WithQuorum(2), core.WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
		}
	}
	if wins != 2 {
		t.Errorf("quorum lookup collected %d answers, want 2", wins)
	}
}

func TestResolverQuorumUnreachableNamesServer(t *testing.T) {
	// A quorum-2 lookup over one healthy and one black-hole server cannot
	// complete; the typed failure names the dropping server.
	lossy := NewServer(staticZone())
	lossy.DropProb = 1.0
	lossy.Rand = func() float64 { return 0 }
	lossyAddr, err := lossy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	_, okAddr := startDNS(t, staticZone())

	cl := NewClient(200 * time.Millisecond)
	res := NewResolver(cl, core.Fixed{Copies: 2}, lossyAddr.String(), okAddr)
	_, lerr := res.LookupResult(context.Background(), "www.example.com", TypeA,
		core.WithQuorum(2))
	if lerr == nil {
		t.Fatal("quorum 2 with a black-hole server must fail")
	}
	if !errors.Is(lerr, core.ErrQuorumUnreachable) {
		t.Errorf("got %v, want ErrQuorumUnreachable", lerr)
	}
	var re core.ReplicaError
	if !errors.As(lerr, &re) || re.Name != lossyAddr.String() {
		t.Errorf("ReplicaError = %+v, want name %s", re, lossyAddr)
	}
}

func TestExchangeAbandonsSocketWaitOnCancel(t *testing.T) {
	// A black-hole server and a 10s client timeout: cancelling the context
	// must abandon the blocked socket read immediately, not wait out the
	// timeout — this is how the resolver reclaims losing copies the moment
	// a redundant lookup's winner arrives.
	srv := NewServer(staticZone())
	srv.DropProb = 1.0
	srv.Rand = func() float64 { return 0 }
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClient(10 * time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, qerr := cl.Query(ctx, addr.String(), "www.example.com", TypeA)
		done <- qerr
	}()
	cancel()
	select {
	case qerr := <-done:
		if !errors.Is(qerr, context.Canceled) {
			t.Errorf("got %v, want context.Canceled", qerr)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Errorf("cancelled query returned after %v; socket wait not abandoned", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled query still blocked after 5s")
	}
}

func TestResolverCancelsLosingQuery(t *testing.T) {
	// One fast server and one black hole, full replication: the winner
	// completes while the loser is still waiting on its socket, and the
	// result reports the loser as cancelled in flight.
	lossy := NewServer(staticZone())
	lossy.DropProb = 1.0
	lossy.Rand = func() float64 { return 0 }
	lossyAddr, err := lossy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lossy.Close()
	_, okAddr := startDNS(t, staticZone())

	cl := NewClient(10 * time.Second)
	res := NewResolver(cl, core.Fixed{Copies: 2}, lossyAddr.String(), okAddr)
	start := time.Now()
	lres, lerr := res.LookupResult(context.Background(), "www.example.com", TypeA)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if lres.Launched != 2 || lres.Cancelled != 1 {
		t.Errorf("Launched/Cancelled = %d/%d, want 2/1", lres.Launched, lres.Cancelled)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("lookup took %v; winner should not wait for the black hole", el)
	}
}
