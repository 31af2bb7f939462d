package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/gateway"
	"redundancy/internal/memkv"
)

const (
	numServers  = 3
	replication = 2
	numKeys     = 10_000
	muxTimeout  = 10 * time.Second
)

// stallHook is a server's Delay hook. It counts every request the server
// reads, and once armed stalls a fixed share of them: whether request n
// stalls is a hash of (seed, n), not of the clock, so one seed gives one
// stall pattern per server.
type stallHook struct {
	seed     uint64
	percent  uint64
	stallFor time.Duration

	armed    atomic.Bool
	requests atomic.Uint64
	stalls   atomic.Uint64
}

func (h *stallHook) delay() time.Duration {
	n := h.requests.Add(1)
	if h.percent == 0 || !h.armed.Load() {
		return 0
	}
	if mix64(h.seed^n)%100 >= h.percent {
		return 0
	}
	h.stalls.Add(1)
	return h.stallFor
}

// stack is the program under test, booted in this process: three memkv
// servers on loopback TCP, one v2 mux client to each, a ShardedClient
// over them, and for the gateway workloads the HTTP gateway behind a
// real listener.
type stack struct {
	servers  []*memkv.Server
	hooks    []*stallHook
	muxes    []*memkv.MuxClient
	sc       *memkv.ShardedClient
	counters *core.Counters

	gwAddr  string // empty unless the workload goes through the gateway
	httpSrv *http.Server
	httpErr chan error
}

// bootStack starts the servers and clients a workload needs. rec is nil
// on a run that is not traced; otherwise the Backend and Handler
// wrappers are put in place, recording only while rec is switched on.
func bootStack(wl *workload, seed uint64, rec *recorder) (*stack, error) {
	s := &stack{counters: core.NewCounters()}
	backends := make([]memkv.Backend, 0, numServers)
	for i := 0; i < numServers; i++ {
		srv := memkv.NewServer(nil)
		hook := &stallHook{seed: mix64(seed + uint64(i)), percent: uint64(wl.stallPercent), stallFor: wl.stallFor}
		// Server.Delay is read without synchronisation by the serve
		// loops, so it is set before Listen and only armed later.
		srv.Delay = hook.delay
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		s.servers = append(s.servers, srv)
		s.hooks = append(s.hooks, hook)
		mc := memkv.NewMuxClient(addr.String(), muxTimeout)
		s.muxes = append(s.muxes, mc)
		if rec != nil {
			backends = append(backends, &tracedMux{MuxClient: mc, rec: rec, shard: int8(i)})
		} else {
			backends = append(backends, mc)
		}
	}
	s.sc = memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  replication,
		ReadStrategy: wl.strategy, // nil is the client's default, two copies at once
		Observer:     s.counters,
	}, backends...)

	if wl.viaGateway {
		var h http.Handler = gateway.New(gateway.Config{Client: s.sc, Counters: s.counters})
		if rec != nil {
			h = traceHandler(rec, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		s.gwAddr = ln.Addr().String()
		s.httpSrv = &http.Server{Handler: h}
		s.httpErr = make(chan error, 1)
		go func() { s.httpErr <- s.httpSrv.Serve(ln) }()
	}
	return s, nil
}

// preload writes every key at sequence 0 through the ShardedClient
// (versioned, to both owners), from the given number of callers.
func (s *stack) preload(ctx context.Context, callers, valueSize int) error {
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := make([]byte, valueSize)
			for k := c; k < numKeys; k += callers {
				fillValue(val, k, 0)
				ver, err := s.sc.PutVersioned(ctx, keyName(k), val, 0)
				if err == nil && ver == 0 {
					err = errors.New("put returned version 0")
				}
				if err != nil {
					errs[c] = fmt.Errorf("preload %s: %w", keyName(k), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (s *stack) arm(on bool) {
	for _, h := range s.hooks {
		h.armed.Store(on)
	}
}

// serverCounts sums the hooks' counters: requests read by the servers
// and requests stalled.
func (s *stack) serverCounts() (requests, stalls uint64) {
	for _, h := range s.hooks {
		requests += h.requests.Load()
		stalls += h.stalls.Load()
	}
	return requests, stalls
}

// close stops everything bootStack started and waits for it to end.
func (s *stack) close() {
	if s.httpSrv != nil {
		_ = s.httpSrv.Close() // the listener's close error changes nothing here
		<-s.httpErr
	}
	if s.sc != nil {
		_ = s.sc.Close()
	} else {
		for _, mc := range s.muxes {
			_ = mc.Close()
		}
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
}
