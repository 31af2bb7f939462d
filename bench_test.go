package redundancy_test

// One benchmark per table/figure of the paper. Each benchmark regenerates
// its figure through the same harness as cmd/redbench, at reduced scale so
// `go test -bench=.` finishes in minutes. Increase -benchtime or run
// `go run ./cmd/redbench -fig all` for full-scale numbers; EXPERIMENTS.md
// records a full-scale paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"redundancy"
	"redundancy/internal/dist"
	"redundancy/internal/exp"
	"redundancy/internal/memkv"
	"redundancy/internal/queueing"
)

// benchFig runs one experiment per iteration at the given scale.
func benchFig(b *testing.B, name string, scale float64) {
	b.Helper()
	e, ok := exp.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(exp.Options{Scale: scale, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkFig1QueueingMeanAndCCDF(b *testing.B) { benchFig(b, "fig1", 0.1) }
func BenchmarkFig2ThresholdFamilies(b *testing.B)   { benchFig(b, "fig2", 0.05) }
func BenchmarkFig3RandomDistributions(b *testing.B) { benchFig(b, "fig3", 0.05) }
func BenchmarkFig4ClientOverhead(b *testing.B)      { benchFig(b, "fig4", 0.05) }
func BenchmarkTheorem1Exponential(b *testing.B)     { benchFig(b, "thm1", 0.1) }
func BenchmarkFig5DiskDBBase(b *testing.B)          { benchFig(b, "fig5", 0.1) }
func BenchmarkFig6DiskDBTinyFiles(b *testing.B)     { benchFig(b, "fig6", 0.1) }
func BenchmarkFig7DiskDBParetoFiles(b *testing.B)   { benchFig(b, "fig7", 0.1) }
func BenchmarkFig8DiskDBSmallCache(b *testing.B)    { benchFig(b, "fig8", 0.1) }
func BenchmarkFig9DiskDBEC2(b *testing.B)           { benchFig(b, "fig9", 0.1) }
func BenchmarkFig10DiskDBLargeFiles(b *testing.B)   { benchFig(b, "fig10", 0.1) }
func BenchmarkFig11DiskDBInMemory(b *testing.B)     { benchFig(b, "fig11", 0.1) }
func BenchmarkFig12Memcached(b *testing.B)          { benchFig(b, "fig12", 0.1) }
func BenchmarkFig13MemcachedStub(b *testing.B)      { benchFig(b, "fig13", 0.1) }
func BenchmarkFig14FatTree(b *testing.B)            { benchFig(b, "fig14", 0.05) }
func BenchmarkFig15DNSCCDF(b *testing.B)            { benchFig(b, "fig15", 0.05) }
func BenchmarkFig16DNSReduction(b *testing.B)       { benchFig(b, "fig16", 0.05) }
func BenchmarkFig17DNSMarginalValue(b *testing.B)   { benchFig(b, "fig17", 0.05) }
func BenchmarkHandshakeDuplication(b *testing.B)    { benchFig(b, "handshake", 0.05) }

// --- Ablations for the design choices DESIGN.md calls out. ---

// BenchmarkAblationCRN quantifies common random numbers in the threshold
// search: it reports (as custom metrics) the spread of the
// 2-copy-minus-1-copy mean difference across seeds, with paired vs
// unpaired seeds. The honest finding: pairing helps only modestly here,
// because the replicated arm runs at doubled utilization and its own
// queueing noise dominates the difference.
func BenchmarkAblationCRN(b *testing.B) {
	svc := dist.Exponential{MeanV: 1}
	run := func(seed1, seed2 int64) float64 {
		m1, err := queueing.MeanResponse(queueing.Config{
			Servers: 20, Copies: 1, Load: 0.3, Service: svc, Requests: 50000, Seed: seed1,
		})
		if err != nil {
			b.Fatal(err)
		}
		m2, err := queueing.MeanResponse(queueing.Config{
			Servers: 20, Copies: 2, Load: 0.3, Service: svc, Requests: 50000, Seed: seed2,
		})
		if err != nil {
			b.Fatal(err)
		}
		return m2 - m1
	}
	spread := func(paired bool) float64 {
		lo, hi := 1e18, -1e18
		for s := int64(0); s < 8; s++ {
			var d float64
			if paired {
				d = run(s, s)
			} else {
				d = run(s, s+1000)
			}
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return hi - lo
	}
	for i := 0; i < b.N; i++ {
		p := spread(true)
		u := spread(false)
		b.ReportMetric(p, "paired-spread")
		b.ReportMetric(u, "unpaired-spread")
	}
}

// BenchmarkAblationCancellation compares the queueing model's
// no-cancellation worst case against what a cancelling client (package
// core) achieves: with cancellation the loser stops consuming resources,
// so the effective added load is far less than 2x. Reported metric:
// realized mean with full-service copies at 2x load vs single copies.
func BenchmarkAblationCancellation(b *testing.B) {
	svc := dist.ParetoMean(2.1, 1)
	for i := 0; i < b.N; i++ {
		m1, err := queueing.MeanResponse(queueing.Config{
			Servers: 20, Copies: 1, Load: 0.3, Service: svc, Requests: 100000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		m2, err := queueing.MeanResponse(queueing.Config{
			Servers: 20, Copies: 2, Load: 0.3, Service: svc, Requests: 100000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m1, "mean-1copy")
		b.ReportMetric(m2, "mean-2copy-nocancel")
	}
}

// --- Microbenchmarks of the core library hot path. ---

func BenchmarkCoreGroupDo(b *testing.B) {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRandom},
		redundancy.WithSeed(1))
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	g.Add("c", func(ctx context.Context) (int, error) { return 3, nil })
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Do(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreDoValue is the fast lane of the hot path: the same group
// and strategy as BenchmarkCoreGroupDo, but through DoValue — no
// options, first success wins, only the value returned. The pooled call
// frame keeps this at 2 allocs/op, the blocking copies' cancellation
// channel and derived context (TestDoValueAllocs holds the count).
func BenchmarkCoreDoValue(b *testing.B) {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRandom},
		redundancy.WithSeed(1))
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	g.Add("c", func(ctx context.Context) (int, error) { return 3, nil })
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.DoValue(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreDoValueParallel contends the fast lane under ranked
// selection: one shared group's frame pool serving GOMAXPROCS
// goroutines, each call recycling a frame through sync.Pool.
func BenchmarkCoreDoValueParallel(b *testing.B) {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 2, Selection: redundancy.SelectRanked},
		redundancy.WithSeed(1))
	for i := 0; i < 16; i++ {
		i := i
		g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) { return i, nil })
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := g.DoValue(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoreRingDo is the sharded-routing hot path: hash the key,
// binary-search the route table, walk to the primary + successor, and
// run the same call engine as Group.Do over that subset. The routing
// must stay within the same alloc budget as the unrouted path
// (TestRingDoAllocs in internal/ring).
func BenchmarkCoreRingDo(b *testing.B) {
	r := redundancy.NewRing[string, int](redundancy.Fixed{Copies: 2})
	for i := 0; i < 8; i++ {
		i := i
		r.Add(string(rune('a'+i)), func(ctx context.Context, _ string) (int, error) { return i, nil })
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Do(ctx, "user:12345"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreGroupDoParallel is the contention benchmark for the Group
// hot path: one shared Group, GOMAXPROCS goroutines calling Do as fast as
// they can. The copy-on-write engine reads membership, strategy, and
// latency estimates without locking, so throughput should scale with
// cores instead of serializing on a global mutex.
func BenchmarkCoreGroupDoParallel(b *testing.B) {
	for _, sel := range []struct {
		name string
		s    redundancy.Selection
	}{{"ranked", redundancy.SelectRanked}, {"random", redundancy.SelectRandom}} {
		b.Run(sel.name, func(b *testing.B) {
			g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 2, Selection: sel.s},
				redundancy.WithSeed(1))
			for i := 0; i < 16; i++ {
				i := i
				g.Add(string(rune('a'+i)), func(ctx context.Context) (int, error) { return i, nil })
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := g.Do(ctx); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCoreGroupDoQuorum measures the quorum path of the unified
// call engine: same group as BenchmarkCoreGroupDo, but each call waits
// for 2 successes and collects per-copy outcomes.
func BenchmarkCoreGroupDoQuorum(b *testing.B) {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 3, Selection: redundancy.SelectRandom},
		redundancy.WithSeed(1))
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	g.Add("c", func(ctx context.Context) (int, error) { return 3, nil })
	ctx := context.Background()
	var outs []redundancy.Outcome[int]
	opts := []redundancy.CallOption{redundancy.WithQuorum(2), redundancy.WithCollectOutcomes(&outs)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Do(ctx, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemkvMuxParallel drives the memkv wire protocol at full
// tilt through ONE TCP connection: GOMAXPROCS goroutines issuing gets
// concurrently, writes group-committed by the connection's flusher,
// responses demuxed by tag. This is the transport hot path under the
// paper's redundancy (every redundant read multiplies in-flight
// requests); TestMuxGetHitAllocations in internal/memkv holds a get hit
// to one allocation in the whole process, the value.
func BenchmarkMemkvMuxParallel(b *testing.B) {
	srv := memkv.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl := memkv.NewMuxClient(addr.String(), 30*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "bench-key", []byte("bench-value-0123456789")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v, err := cl.Get(ctx, "bench-key")
			if err != nil {
				b.Fatal(err)
			}
			if len(v) == 0 {
				b.Fatal("empty value")
			}
		}
	})
}

// BenchmarkMemkvWatchFanout is the event fan-out hot path: one store,
// 16 registered prefix watchers each draining its own channel, and every
// put delivered to all of them. The per-put cost (one allocation, held by
// TestStoreWatchFanoutAllocations in internal/memkv) is what bounds
// write throughput on a watched prefix — the registry walk and the
// non-blocking channel sends, not per-watcher allocation.
func BenchmarkMemkvWatchFanout(b *testing.B) {
	const watchers = 16
	s := memkv.NewStore()
	var wg sync.WaitGroup
	ws := make([]*memkv.StoreWatch, watchers)
	for i := range ws {
		w := s.Watch("fan/", 1<<16)
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range w.Events() {
			}
		}()
	}
	val := []byte("fanout-value-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PutVersion("fan/key", 0, val, 0, uint64(i+1))
	}
	b.StopTimer()
	for _, w := range ws {
		w.Close()
	}
	wg.Wait()
}

// BenchmarkStoreScanPage shows the anti-entropy enumeration fix: one
// 128-entry Scan page over stores of different sizes. The bounded
// max-heap sweep allocates only the page itself — allocs/op and B/op
// stay flat from 100k to 1M keys, where the old page copied and sorted
// every key (O(n) garbage, O(n log n) compares per page, a quadratic
// full enumeration). Page time is the shard-map walk: one string
// compare per live key, cache-miss-dominated at 1M keys.
func BenchmarkStoreScanPage(b *testing.B) {
	for _, size := range []int{100_000, 1_000_000} {
		b.Run(fmt.Sprintf("keys=%d", size), func(b *testing.B) {
			s := memkv.NewStore()
			val := []byte("v")
			for i := 0; i < size; i++ {
				s.Set(fmt.Sprintf("k/%07d", i), 0, val)
			}
			b.ReportAllocs()
			b.ResetTimer()
			after := ""
			for i := 0; i < b.N; i++ {
				entries, more := s.Scan(after, 128)
				if len(entries) == 0 {
					b.Fatal("empty page")
				}
				if more {
					after = entries[len(entries)-1].Key
				} else {
					after = ""
				}
			}
		})
	}
}

func BenchmarkAblationFatTree(b *testing.B)  { benchFig(b, "ablfattree", 0.05) }
func BenchmarkAblationQueueing(b *testing.B) { benchFig(b, "ablqueueing", 0.05) }
func BenchmarkAblationHedging(b *testing.B)  { benchFig(b, "ablhedge", 0.05) }
func BenchmarkAblationQuorum(b *testing.B)   { benchFig(b, "ablquorum", 0.05) }
func BenchmarkAblationCancel(b *testing.B)   { benchFig(b, "ablcancel", 0.05) }
