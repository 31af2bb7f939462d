package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"context"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/memkv"
	"redundancy/internal/stats"
)

// AblationShard reproduces the shape of the paper's §2.2 disk-backed
// storage result (Figures 5 and 10) in the LIVE stack rather than the
// cluster simulator: real memkv servers over TCP, a memkv.ShardedClient
// partitioning keys across them on the production consistent-hash ring
// (internal/ring), and redundant primary+secondary reads through the
// core call engine.
//
// Each shard emulates a single FCFS disk-backed server with its Delay
// hook: per request it draws a service time (cache-hit CPU or a
// lognormal disk seek, plus size/bandwidth transfer), advances a
// virtual free-at clock under a mutex (the Lindley recursion), and
// sleeps until the request's virtual completion — so queueing delay is
// real wall-clock waiting, felt through real sockets by the real
// client. Reserved service is not reclaimed when a losing copy is
// cancelled, matching the paper's storage service, which ran every
// copy to completion.
//
// Two tables:
//
//   - response time vs load at 4 KB values: redundancy-to-2 wins
//     clearly at low load and crosses over as load grows (the extra
//     copies double the offered load, so the 2-copy arm saturates
//     first) — Figure 5's shape;
//   - response time vs value size at fixed load: as transfer time
//     dominates the (variable) seek, the service time becomes nearly
//     deterministic and doubled load buys little or negative benefit —
//     Figure 10's shape.
//
// Wall-clock runtime scales with o.Scale since the latencies are real;
// the default scale runs in well under a minute.
func AblationShard(o Options) ([]*Table, error) {
	const shards = 4

	loadTab := &Table{
		Title: "Ablation: sharded live stack, response time vs load (4 KB values, 4 memkv shards, FCFS disk model)",
		Caption: "primary+secondary redundant reads vs single-copy through the production ring; " +
			"2 copies double the offered load, so the win at low load inverts as load grows",
		Columns: []string{"load", "mean 1c (ms)", "mean 2c (ms)", "p99 1c (ms)", "p99 2c (ms)"},
	}
	requests := o.scale(2500)
	for _, load := range []float64{0.1, 0.2, 0.3, 0.45} {
		var res [3]*stats.Sample
		for _, copies := range []int{1, 2} {
			s, err := runShardArm(shardArm{
				shards: shards, copies: copies, load: load,
				valueSize: 4 << 10, requests: requests, seed: o.Seed + int64(copies),
			})
			if err != nil {
				return nil, fmt.Errorf("ablshard load %g %dc: %w", load, copies, err)
			}
			res[copies] = s
		}
		loadTab.Add(load,
			res[1].Mean()*1e3, res[2].Mean()*1e3,
			res[1].P99()*1e3, res[2].P99()*1e3)
	}

	sizeTab := &Table{
		Title: "Ablation: sharded live stack, response time vs value size (load 0.2)",
		Caption: "large values make service time transfer-dominated (nearly deterministic), so doubled load " +
			"buys ever less: the redundancy win shrinks as size grows — the paper's Figure 10 effect",
		Columns: []string{"value size", "mean 1c (ms)", "mean 2c (ms)", "p99 1c (ms)", "p99 2c (ms)"},
	}
	requests = o.scale(1200)
	for _, size := range []int{4 << 10, 100 << 10, 400 << 10} {
		var res [3]*stats.Sample
		for _, copies := range []int{1, 2} {
			s, err := runShardArm(shardArm{
				shards: shards, copies: copies, load: 0.2,
				valueSize: size, requests: requests, seed: o.Seed + int64(copies),
			})
			if err != nil {
				return nil, fmt.Errorf("ablshard size %d %dc: %w", size, copies, err)
			}
			res[copies] = s
		}
		sizeTab.Add(fmt.Sprintf("%d KB", size>>10),
			res[1].Mean()*1e3, res[2].Mean()*1e3,
			res[1].P99()*1e3, res[2].P99()*1e3)
	}
	return []*Table{loadTab, sizeTab}, nil
}

// shardArm is one measured configuration of the live sharded stack.
type shardArm struct {
	shards    int
	copies    int // read fan-out within the placement
	load      float64
	valueSize int
	requests  int
	seed      int64
}

// Disk-model constants, matching internal/cluster's Emulab-scale
// hardware: 10k RPM disks, ~60 MB/s sequential bandwidth.
const (
	shardHitCPU   = 200e-6 // cache-hit service, seconds
	shardSeekMean = 8e-3   // mean disk positioning time, seconds
	shardSeekCV   = 0.65
	shardDiskBW   = 60e6 // bytes/second
	shardMissProb = 0.1
)

// fcfsClock emulates one FCFS server on the wall clock: each request
// reserves a service time drawn from svc behind the queue (Lindley
// recursion) and the handler sleeps until the request's virtual
// completion. While measuring is off, requests occupy no service.
type fcfsClock struct {
	mu        sync.Mutex
	freeAt    time.Time
	rng       *rand.Rand
	svc       dist.Dist
	measuring *atomic.Bool
}

func (c *fcfsClock) delay() time.Duration {
	if !c.measuring.Load() {
		return 0
	}
	now := time.Now()
	c.mu.Lock()
	svc := c.svc.Sample(c.rng)
	start := c.freeAt
	if start.Before(now) {
		start = now
	}
	done := start.Add(time.Duration(svc * float64(time.Second)))
	c.freeAt = done
	c.mu.Unlock()
	return done.Sub(now)
}

// startFCFSShard starts a memkv server on loopback whose requests queue
// on an fcfsClock, with service times drawn from svc by an RNG seeded
// with seed, and dials a mux client to it.
func startFCFSShard(seed int64, svc dist.Dist, measuring *atomic.Bool) (*memkv.Server, *memkv.MuxClient, error) {
	srv := memkv.NewServer(nil)
	srv.Delay = (&fcfsClock{rng: rand.New(rand.NewSource(seed)), svc: svc, measuring: measuring}).delay
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return srv, memkv.NewMuxClient(addr.String(), 30*time.Second), nil
}

// diskService is a shard's service time in seconds: cache-hit CPU, a
// lognormal seek on a miss, and the value's transfer.
type diskService struct {
	seek     dist.LogNormal
	transfer float64
}

func (d diskService) Sample(r *rand.Rand) float64 {
	svc := shardHitCPU
	if r.Float64() < shardMissProb {
		svc += d.seek.Sample(r)
	}
	return svc + d.transfer
}

func (d diskService) Mean() float64 {
	return shardHitCPU + shardMissProb*shardSeekMean + d.transfer
}

func (d diskService) Variance() float64 {
	seek2 := d.seek.Variance() + shardSeekMean*shardSeekMean
	return shardMissProb*seek2 - shardMissProb*shardMissProb*shardSeekMean*shardSeekMean
}

// runShardArm measures one (copies, load, valueSize) point and returns
// the response-time sample in seconds.
func runShardArm(a shardArm) (*stats.Sample, error) {
	var measuring atomic.Bool
	svc := diskService{
		seek:     dist.LogNormalMeanCV(shardSeekMean, shardSeekCV),
		transfer: float64(a.valueSize) / shardDiskBW,
	}
	servers := make([]*memkv.Server, a.shards)
	clients := make([]memkv.Backend, a.shards)
	for i := range servers {
		srv, cl, err := startFCFSShard(a.seed+int64(i)*1009, svc, &measuring)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		servers[i], clients[i] = srv, cl
	}
	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  2,
		WriteQuorum:  2, // write-all: every placement copy holds every key
		ReadStrategy: core.Fixed{Copies: a.copies},
	}, clients...)
	defer sc.Close()

	// Preload the keyspace (unmetered: the measuring flag is off, so
	// preload writes do not occupy the modelled disks).
	ctx := context.Background()
	const keys = 128
	value := make([]byte, a.valueSize)
	for i := 0; i < keys; i++ {
		if _, err := sc.PutVersioned(ctx, fmt.Sprintf("file-%d", i), value, 0); err != nil {
			return nil, err
		}
	}
	measuring.Store(true)

	// Open-loop Poisson arrivals calibrated against the UNREPLICATED
	// system's bottleneck, as in the paper: the redundant arm really
	// offers ~2x that load.
	return openLoopReads(sc, readLoad{
		rng:      rand.New(rand.NewSource(a.seed ^ 0x5bd1)),
		lambda:   a.load * float64(a.shards) / svc.Mean(),
		keys:     keys,
		warmup:   a.requests / 5,
		requests: a.requests,
	})
}

// readLoad is one window of open-loop Poisson reads (openLoopReads).
type readLoad struct {
	rng      *rand.Rand // draws each read's gap, then its key
	lambda   float64    // reads a second
	keys     int        // a read's key is file-i, i uniform below keys
	warmup   int        // reads made first and not measured
	requests int        // reads measured
	// gov, if set, takes one utilization sample as each read arrives:
	// the reads in flight per shard of shards.
	gov    *core.Governor
	shards int
}

// openLoopReads makes the window's reads, each a GetResult on a
// goroutine of its own at its arrival instant, so the pacer never waits
// on a reply, and returns the measured reads' latencies in seconds, or
// the first measured read's error.
func openLoopReads(sc *memkv.ShardedClient, w readLoad) (*stats.Sample, error) {
	ctx := context.Background()
	total := w.warmup + w.requests
	lat := make([]float64, total)
	failed := make([]error, total)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	next := time.Now()
	for i := 0; i < total; i++ {
		next = next.Add(time.Duration(w.rng.ExpFloat64() / w.lambda * float64(time.Second)))
		key := fmt.Sprintf("file-%d", w.rng.Intn(w.keys))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if w.gov != nil {
			w.gov.Observe(float64(inflight.Load()) / float64(w.shards))
		}
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			inflight.Add(1)
			defer inflight.Add(-1)
			res, err := sc.GetResult(ctx, key)
			if err != nil {
				failed[i] = err
				return
			}
			lat[i] = res.Latency.Seconds()
		}(i, key)
	}
	wg.Wait()
	sample := stats.NewSample(w.requests)
	for i := w.warmup; i < total; i++ {
		if failed[i] != nil {
			return nil, failed[i]
		}
		sample.Add(lat[i])
	}
	return sample, nil
}
