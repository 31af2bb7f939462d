package exp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/dist"
	"redundancy/internal/memkv"
	"redundancy/internal/stats"
)

// AblationWatch applies the paper's redundancy argument to server-push
// streams: event delivery latency of a prefix watch subscribed to ONE
// replica versus a redundant watch subscribed to EVERY replica with
// (key, version) deduplication. A request/response call races copies
// and keeps the first answer; a redundant watch does the same per
// event — each logical event is delivered by whichever replica's copy
// arrives first, so tail latency tracks the fastest replica while a
// single-replica stream eats its one replica's queueing tail whole.
//
// Three phases on a live 2-shard, replication-2 cluster whose servers
// sleep exponential service times per request:
//
//   - single: one MuxClient.Watch on one replica; every write's event
//     carries its send timestamp and is clocked at delivery.
//   - redundant: ShardedClient.WatchPrefix over both replicas, same
//     write load — the acceptance bar is redundant p99 <= single p99.
//   - kill: with the redundant watch mid-stream, one replica's server
//     is killed and writes continue under WriteQuorum 1. The surviving
//     subscription must deliver every remaining event: the audit counts
//     exactly-once delivery per key across the whole phase — zero
//     missed, zero duplicates — while the dead shard's loop redials.
func AblationWatch(o Options) ([]*Table, error) {
	const (
		shards    = 2
		svcMean   = 2e-3 // mean per-request service time, seconds
		load      = 0.3
		watchPref = "w/"
	)
	events := o.scale(600)
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	var measuring atomic.Bool
	servers := make(map[string]*memkv.Server, shards)
	muxByAddr := make(map[string]*memkv.MuxClient, shards)
	clients := make([]memkv.Backend, shards)
	addrs := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		srv, cl, err := startFCFSShard(seed+int64(i)*7919, dist.Exponential{MeanV: svcMean}, &measuring)
		if err != nil {
			return nil, err
		}
		servers[cl.Addr()] = srv
		addrs = append(addrs, cl.Addr())
		muxByAddr[cl.Addr()] = cl
		clients[i] = cl
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication: 2,
		WriteQuorum: 1,
	}, clients...)
	defer sc.Close()
	ctx := context.Background()

	// phaseResult is one phase's delivery audit: how many of the phase's
	// events arrived, how many duplicate copies leaked past the filter,
	// and the delivery latency sample (send timestamp embedded in each
	// value, clocked at delivery — so it includes the replica's queueing,
	// which is the whole point).
	type phaseResult struct {
		got, dups int
		lat       *stats.Sample
	}

	// collectPhase drains ch concurrently with the writer until all n of
	// the phase's events arrived (or a deadline); it must run alongside
	// the writes, or buffered events would be clocked at drain time and
	// the "latency" would just measure the phase length.
	collectPhase := func(ch <-chan memkv.WatchEvent, phase string, n int) <-chan phaseResult {
		out := make(chan phaseResult, 1)
		go func() {
			res := phaseResult{lat: stats.NewSample(n)}
			counts := make(map[string]int, n)
			pref := watchPref + phase + "-"
			deadline := time.After(30 * time.Second)
			for res.got < n {
				select {
				case ev, ok := <-ch:
					if !ok {
						out <- res
						return
					}
					if !strings.HasPrefix(ev.Key, pref) {
						continue // an earlier phase's straggler
					}
					counts[ev.Key]++
					if counts[ev.Key] > 1 {
						res.dups++ // duplicate leaked past the filter
						continue
					}
					res.got++
					if len(ev.Value) == 8 {
						sent := int64(binary.BigEndian.Uint64(ev.Value))
						res.lat.Add(time.Duration(time.Now().UnixNano() - sent).Seconds())
					}
				case <-deadline:
					out <- res
					return
				}
			}
			out <- res
		}()
		return out
	}

	// writePhase drives open-loop Poisson writes (goroutine per write, so
	// the pacer never waits on an ack) under the phase's key prefix, each
	// value carrying its send timestamp. kill, if non-empty, is the shard
	// closed after half the writes.
	rng := rand.New(rand.NewSource(seed ^ 0x77))
	lambda := load * float64(shards) / svcMean
	writePhase := func(phase, kill string) error {
		var wg sync.WaitGroup
		errC := make(chan error, 1)
		next := time.Now()
		for i := 0; i < events; i++ {
			if kill != "" && i == events/2 {
				servers[kill].Close()
			}
			next = next.Add(time.Duration(rng.ExpFloat64() / lambda * float64(time.Second)))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			key := fmt.Sprintf("%s%s-%05d", watchPref, phase, i)
			val := make([]byte, 8)
			binary.BigEndian.PutUint64(val, uint64(time.Now().UnixNano()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sc.PutVersioned(ctx, key, val, 0); err != nil {
					select {
					case errC <- fmt.Errorf("%s write %s: %w", phase, key, err):
					default:
					}
				}
			}()
		}
		wg.Wait()
		select {
		case err := <-errC:
			return err
		default:
			return nil
		}
	}

	// ---- phase 1: single-replica watch ----
	singleAddr := addrs[0]
	single, err := muxByAddr[singleAddr].Watch(ctx, watchPref, 4096)
	if err != nil {
		return nil, fmt.Errorf("single watch: %w", err)
	}
	measuring.Store(true)
	resC := collectPhase(single.Events(), "s", events)
	if err := writePhase("s", ""); err != nil {
		return nil, err
	}
	sres := <-resC
	measuring.Store(false)
	single.Close()

	// ---- phase 2: redundant watch over both replicas ----
	red, err := sc.WatchPrefix(ctx, watchPref, 4096)
	if err != nil {
		return nil, fmt.Errorf("redundant watch: %w", err)
	}
	measuring.Store(true)
	resC = collectPhase(red.Events(), "r", events)
	if err := writePhase("r", ""); err != nil {
		return nil, err
	}
	rres := <-resC
	measuring.Store(false)

	// ---- phase 3: kill one replica mid-stream, same redundant watch ----
	victim := addrs[1]
	measuring.Store(true)
	resC = collectPhase(red.Events(), "k", events)
	if err := writePhase("k", victim); err != nil {
		return nil, err
	}
	kres := <-resC
	measuring.Store(false)
	rst := red.Stats()
	red.Close()

	dups := rres.dups + kres.dups

	tab := &Table{
		Title: "Ablation: redundant watch — event delivery latency, single replica vs subscribe-everywhere",
		Caption: fmt.Sprintf(
			"2 shards, replication 2, exponential service mean %.0fus, load %.2g; redundant watch dedups by (key, version): "+
				"delivered %d, suppressed %d duplicate copies, %d resubscribes; "+
				"kill phase: %d/%d events delivered with one replica dead mid-stream, %d dup(s) leaked",
			svcMean*1e6, load, rst.Delivered, rst.Duplicates, rst.Resubscribes, kres.got, events, dups),
		Columns: []string{"stream", "events", "delivered", "mean (ms)", "p99 (ms)"},
	}
	tab.Add("single replica", events, sres.got, sres.lat.Mean()*1e3, sres.lat.P99()*1e3)
	tab.Add("redundant (2 replicas)", events, rres.got, rres.lat.Mean()*1e3, rres.lat.P99()*1e3)
	tab.Add("redundant, 1 replica killed", events, kres.got, kres.lat.Mean()*1e3, kres.lat.P99()*1e3)

	if rres.got != events || kres.got != events {
		return []*Table{tab}, fmt.Errorf("ablwatch: missed events (redundant %d/%d, kill %d/%d)",
			rres.got, events, kres.got, events)
	}
	if dups != 0 {
		return []*Table{tab}, fmt.Errorf("ablwatch: %d duplicate deliveries leaked through the (key, version) filter", dups)
	}
	if rres.lat.P99() > sres.lat.P99() {
		return []*Table{tab}, fmt.Errorf("ablwatch: redundant p99 %.3fms > single p99 %.3fms",
			rres.lat.P99()*1e3, sres.lat.P99()*1e3)
	}
	return []*Table{tab}, nil
}
