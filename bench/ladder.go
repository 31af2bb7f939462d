package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/gateway"
	"redundancy/internal/memkv"
)

// The call ladder times a fixed number of calls into one public function
// of each layer, one caller at a time, on the stack the window just ran
// against (now idle, stalls disarmed). Each rung includes the rungs
// below it, so differences between neighbouring rungs are what a layer
// adds; on an idle stack those differences add up to a GET's latency,
// which the spans of a loaded window cannot show because there they
// mostly measure waiting for a processor.

const (
	ladderFast = 200_000 // calls per rung that takes nanoseconds
	ladderSlow = 10_000  // calls per rung that crosses a socket
)

// ladder holds one rung per field, in the unit of the metric it feeds.
type ladder struct {
	storeGetNS, storeGetAllocs, storePutNS float64
	ringRouteNS, ringRouteAllocs           float64
	coreK1NS, coreK1Allocs                 float64
	coreK2NS, coreK2Allocs                 float64
	muxRTTUS, muxGetAllocs                 float64
	shardedK1US                            float64 // ShardedClient.Get with one copy
	shardedGetUS, shardedSelfUS            float64 // under the workload's own strategy, from spans
	shardedGetAllocs                       float64
	shardedPutUS                           float64
	gatewayGetAllocs                       float64 // Gateway.ServeHTTP for a GET, layers below included
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeBatches times n calls of fn in five batches and returns the median
// batch's nanoseconds per call and the allocations per call overall. It
// suits calls too short to time one by one.
func timeBatches(n int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	const batches = 5
	per := n / batches
	means := make([]float64, 0, batches)
	before := mallocs()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn(b*per + i)
		}
		means = append(means, float64(time.Since(t0))/float64(per))
	}
	return median(means), float64(mallocs()-before) / float64(per*batches)
}

// timeEach times n calls of fn one by one and returns the median call's
// microseconds and the allocations per call.
func timeEach(n int, fn func(i int)) (medianUS, allocsPerCall float64) {
	durs := make([]float64, n)
	before := mallocs()
	for i := range durs {
		t0 := time.Now()
		fn(i)
		durs[i] = float64(time.Since(t0)) / 1e3
	}
	after := mallocs()
	return median(durs), float64(after-before) / float64(n)
}

// discardWriter is the smallest http.ResponseWriter: it lets the ladder
// call the gateway's ServeHTTP without a connection and without adding
// allocations of its own to the count.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// runLadder climbs every rung. It fails on the first call that does not
// return what the preload stored, so a rung never times an error path.
func runLadder(wl *workload, s *stack, rec *recorder) (ladder, error) {
	var l ladder
	var failure error
	fail := func(format string, args ...any) {
		if failure == nil {
			failure = fmt.Errorf(format, args...)
		}
	}
	ctx := context.Background()
	keys := make([]string, numKeys)
	for k := range keys {
		keys[k] = keyName(k)
	}
	val := make([]byte, wl.valueSize)

	// store: Store.Get and Store.PutVersion on a store of the same size.
	store := memkv.NewStore()
	for k := range keys {
		fillValue(val, k, 0)
		store.PutVersion(keys[k], 0, val, 0, 1)
	}
	l.storeGetNS, l.storeGetAllocs = timeBatches(ladderFast, func(i int) {
		if _, _, ok := store.Get(keys[i%numKeys]); !ok {
			fail("store.Get(%s): missing", keys[i%numKeys])
		}
	})
	l.storePutNS, _ = timeBatches(ladderFast, func(i int) {
		store.PutVersion(keys[i%numKeys], 0, val, 0, uint64(i)+2)
	})

	// ring: resolving a key's owners.
	placement := s.sc.PlacementSnapshot()
	owners := make([]string, replication)
	l.ringRouteNS, l.ringRouteAllocs = timeBatches(ladderFast, func(i int) {
		if placement.OwnersInto(keys[i%numKeys], owners) != replication {
			fail("OwnersInto(%s): short placement", keys[i%numKeys])
		}
	})

	// core: the call engine over replicas that return at once.
	for _, k := range []int{1, 2} {
		g := core.NewStrategyGroup[int](core.Fixed{Copies: k})
		for i := 0; i < numServers; i++ {
			g.Add(fmt.Sprint("r", i), func(context.Context) (int, error) { return i, nil })
		}
		ns, allocs := timeBatches(ladderFast, func(int) {
			if _, err := g.DoValue(ctx); err != nil {
				fail("DoValue k=%d: %v", k, err)
			}
		})
		if k == 1 {
			l.coreK1NS, l.coreK1Allocs = ns, allocs
		} else {
			l.coreK2NS, l.coreK2Allocs = ns, allocs
		}
	}

	// mux: one MuxClient.Get at a time to a live server. Each key is
	// asked of its primary, which is sure to hold it.
	byAddr := make(map[string]*memkv.MuxClient, len(s.muxes))
	for _, mc := range s.muxes {
		byAddr[mc.Addr()] = mc
	}
	l.muxRTTUS, l.muxGetAllocs = timeEach(ladderSlow, func(i int) {
		k := i % numKeys
		placement.OwnersInto(keys[k], owners)
		v, err := byAddr[owners[0]].Get(ctx, keys[k])
		if err != nil || len(v) != wl.valueSize {
			fail("MuxClient.Get(%s): %d bytes, %v", keys[k], len(v), err)
		}
	})

	// sharded: ShardedClient.Get with redundancy off, then under the
	// workload's strategy with spans on, then PutVersioned.
	get := func(i int) {
		k := i % numKeys
		if v, err := s.sc.Get(ctx, keys[k]); err != nil || len(v) != wl.valueSize {
			fail("ShardedClient.Get(%s): %d bytes, %v", keys[k], len(v), err)
		}
	}
	s.sc.SetReadStrategy(core.Fixed{Copies: 1})
	l.shardedK1US, _ = timeEach(ladderSlow, get)
	own := wl.strategy
	if own == nil {
		own = core.Fixed{Copies: 2}
	}
	s.sc.SetReadStrategy(own)
	_, l.shardedGetAllocs = timeEach(ladderSlow, get)
	rec.on.Store(true)
	lc := &libClient{sc: s.sc, keys: keys, state: &keyState{seq: make([]uint64, numKeys)}, size: wl.valueSize, rec: rec}
	for i := 0; i < ladderSlow; i++ {
		// Keys the window may have overwritten are not checked here: the
		// window already checked every reply it got.
		lc.do(i%numKeys, false)
	}
	rec.on.Store(false)
	if !rec.quiesce(time.Second) {
		fail("ladder: copies still running a second after the last call")
	}
	wt := analyze(rec.take(), 0)
	l.shardedGetUS, l.shardedSelfUS = wt.shardedGetUS, wt.shardedSelfUS

	// The PUT rung writes fresh keys, not the workload's.
	l.shardedPutUS, _ = timeEach(ladderSlow/5, func(i int) {
		if ver, err := s.sc.PutVersioned(ctx, fmt.Sprint("ladder", i), val, 0); err != nil || ver == 0 {
			fail("PutVersioned: version %d, %v", ver, err)
		}
	})

	// gateway: ServeHTTP called directly, no connection.
	gw := gateway.New(gateway.Config{Client: s.sc})
	reqs := make([]*http.Request, 64)
	for i := range reqs {
		r, err := http.NewRequest(http.MethodGet, "/kv/"+keys[i], nil)
		if err != nil {
			return l, err
		}
		reqs[i] = r
	}
	w := &discardWriter{h: make(http.Header)}
	_, l.gatewayGetAllocs = timeEach(ladderSlow, func(i int) {
		clear(w.h)
		gw.ServeHTTP(w, reqs[i%len(reqs)])
		if w.status != http.StatusOK {
			fail("gateway GET %s: status %d", reqs[i%len(reqs)].URL.Path, w.status)
		}
	})
	return l, failure
}
