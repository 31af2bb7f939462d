package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/memkv"
	"redundancy/internal/repair"
	"redundancy/internal/stats"
)

// AblationRebalance demonstrates the convergence subsystem end to end
// on the live stack: a loaded 4-shard versioned memkv cluster gains a
// fifth shard mid-run, the governed anti-entropy migrator re-homes
// exactly the remapped keys while foreground reads continue, and a
// deliberately staled replica is healed by a quorum read's asynchronous
// read repair.
//
// The paper's premise — redundant reads win because every placement
// copy holds the data — silently breaks at every topology change;
// this experiment shows the migrator restoring it with bounded
// foreground impact. Three measurements:
//
//   - Foreground read latency (p99) in a steady-state window, in the
//     window during the reshard, and after convergence. The acceptance
//     bar is reshard p99 within 2x of steady-state: migration batches
//     only run when the shared governor's AllowBackground gate sees
//     utilization below its low-water mark.
//   - A version audit after the migrator finishes: every key must be
//     present at every owner of the NEW placement at the exact version
//     the writer minted (read directly from each shard, bypassing the
//     ring) — convergence verified key by key, not inferred.
//   - A read-repair probe: one replica of one key is staled by writing
//     a newer version to the other owner only; a quorum read returns
//     the newest value and the repair manager pushes it to the stale
//     replica off the read path, observable in its stats.
//
// Wall-clock runtime scales with o.Scale; the default runs in a few
// seconds.
func AblationRebalance(o Options) ([]*Table, error) {
	const (
		shards    = 4
		keys      = 256
		valueSize = 512
		load      = 0.2
		svcMean   = 300e-6 // mean per-request service time, seconds
	)
	window := o.scale(1500)
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}

	// ---- cluster: versioned (v2 mux) shards behind a sharded client ----
	var measuring atomic.Bool
	servers := make([]*memkv.Server, 0, shards+1)
	muxByAddr := make(map[string]*memkv.MuxClient)
	newShard := func(i int) (*memkv.MuxClient, error) {
		srv, cl, err := startFCFSShard(seed+int64(i)*7919, dist.Exponential{MeanV: svcMean}, &measuring)
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		muxByAddr[cl.Addr()] = cl
		return cl, nil
	}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()

	clients := make([]memkv.Backend, shards)
	for i := range clients {
		cl, err := newShard(i)
		if err != nil {
			return nil, err
		}
		clients[i] = cl
	}
	// Foreground reads stay at fixed fan-out 2: during the reshard a
	// single-copy read routed to the not-yet-migrated new shard would
	// miss, and the second copy (the old owner, still in the placement)
	// is exactly the redundancy that papers over the transition. The
	// governor is fed the foreground in-flight load by the window driver
	// and gates only the migrator's background work.
	gov := core.NewGovernor(0, 0)
	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  2,
		WriteQuorum:  2,
		ReadStrategy: core.Fixed{Copies: 2},
	}, clients...)
	defer sc.Close()

	mgr := repair.Attach(sc, repair.Config{
		Governor:       gov,
		ReplayInterval: 20 * time.Millisecond,
	})
	defer mgr.Close()

	// ---- preload: versioned quorum writes, versions remembered ----
	ctx := context.Background()
	wantVer := make(map[string]uint64, keys)
	value := make([]byte, valueSize)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("file-%d", i)
		ver, err := sc.PutVersioned(ctx, key, value, 0)
		if err != nil {
			return nil, fmt.Errorf("preload %s: %w", key, err)
		}
		wantVer[key] = ver
	}
	measuring.Store(true)

	// readWindow is one window of open-loop reads over n shards, each
	// read feeding the governor the foreground's in-flight load.
	readWindow := func(n int, seed int64) (*stats.Sample, error) {
		return openLoopReads(sc, readLoad{
			rng:      rand.New(rand.NewSource(seed)),
			lambda:   load * float64(n) / svcMean,
			keys:     keys,
			requests: window,
			gov:      gov,
			shards:   n,
		})
	}

	// ---- phase 1: steady state ----
	prevPlacement := sc.PlacementSnapshot()
	steady, err := readWindow(shards, seed^0x1111)
	if err != nil {
		return nil, fmt.Errorf("steady window: %w", err)
	}

	// ---- phase 2: AddShard + governed migration under load ----
	newClient, err := newShard(shards)
	if err != nil {
		return nil, err
	}
	sc.AddShard(newClient)
	curPlacement := sc.PlacementSnapshot()

	type rebRes struct {
		st  repair.RebalanceStats
		err error
	}
	rebC := make(chan rebRes, 1)
	go func() {
		st, err := mgr.Rebalance(ctx, prevPlacement, curPlacement)
		rebC <- rebRes{st, err}
	}()
	during, err := readWindow(shards+1, seed^0x2222)
	if err != nil {
		return nil, fmt.Errorf("reshard window: %w", err)
	}
	// The reshard window is over but the migrator may still be paging.
	// The governor's EWMA only moves on samples, so if the window's last
	// in-flight reading landed above the low-water mark the gate would
	// stay shut forever — keep telling it the foreground is idle while
	// we wait.
	var reb rebRes
	for waiting := true; waiting; {
		select {
		case reb = <-rebC:
			waiting = false
		case <-time.After(2 * time.Millisecond):
			gov.Observe(0)
		}
	}
	if reb.err != nil {
		return nil, fmt.Errorf("rebalance: %w", reb.err)
	}

	after, err := readWindow(shards+1, seed^0x3333)
	if err != nil {
		return nil, fmt.Errorf("post window: %w", err)
	}

	// The foreground load is over, but the governor's EWMA only moves on
	// samples — tell it the system is idle, or background work (the
	// read-repair push below) would stay gated on the last loaded value.
	for i := 0; i < 512; i++ {
		gov.Observe(0)
	}

	// ---- phase 3: version audit, directly against every owner ----
	measuring.Store(false) // audit reads should not occupy the modelled disks
	audited, converged, missing, staleVer := 0, 0, 0, 0
	for key, want := range wantVer {
		owners := curPlacement.Owners(key)
		audited++
		ok := true
		for _, owner := range owners {
			cl := muxByAddr[owner]
			_, ver, _, err := cl.GetV(ctx, key)
			if err != nil {
				ok = false
				missing++
				break
			}
			if ver != want {
				ok = false
				staleVer++
				break
			}
		}
		if ok {
			converged++
		}
	}

	// ---- phase 4: read-repair probe ----
	// Stale one replica of one key by putting a newer version at the
	// other owner only, then let a quorum read through the client both
	// return the newest value and trigger the asynchronous repair.
	probeKey := "file-0"
	probeOwners := curPlacement.Owners(probeKey)
	newVal := []byte("repaired-value")
	probeVer := sc.NextVersion()
	if _, _, err := muxByAddr[probeOwners[0]].PutV(ctx, probeKey, newVal, 0, probeVer); err != nil {
		return nil, fmt.Errorf("probe stale put: %w", err)
	}
	res, err := sc.GetResult(ctx, probeKey, core.WithQuorum(2))
	gotVal, gotVer := res.Value.Value, res.Value.Version
	if err != nil {
		return nil, fmt.Errorf("probe quorum read: %w", err)
	}
	repaired := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, v, _, err := muxByAddr[probeOwners[1]].GetV(ctx, probeKey)
		if err == nil && v == probeVer {
			repaired = true
			break
		}
		gov.Observe(0) // keep the background gate open while polling
		time.Sleep(10 * time.Millisecond)
	}
	mst := mgr.Stats()
	gst := gov.Stats()

	latTab := &Table{
		Title: "Ablation: live reshard — foreground read latency around a governed anti-entropy migration",
		Caption: fmt.Sprintf(
			"4->5 memkv shards under open-loop load %.2g; migration pages gated on governor AllowBackground "+
				"(allowed %d, deferred %d); reshard p99 / steady p99 = %.2fx (bound: 2x)",
			load, gst.BackgroundAllowed, gst.BackgroundDeferred, ratio(during.P99(), steady.P99())),
		Columns: []string{"phase", "reads", "mean (ms)", "p99 (ms)"},
	}
	latTab.Add("steady (4 shards)", window, steady.Mean()*1e3, steady.P99()*1e3)
	latTab.Add("during reshard", window, during.Mean()*1e3, during.P99()*1e3)
	latTab.Add("after convergence", window, after.Mean()*1e3, after.P99()*1e3)

	convTab := &Table{
		Title: "Ablation: live reshard — convergence audit and read repair",
		Caption: fmt.Sprintf(
			"version audit reads every key from every owner of the new placement directly; "+
				"read-repair probe stales one replica of %q and quorum-reads it (value back: %t, version back: %t)",
			probeKey, string(gotVal) == string(newVal), gotVer == probeVer),
		Columns: []string{"check", "value"},
	}
	convTab.Add("keys audited", audited)
	convTab.Add("keys converged (all owners at written version)", converged)
	convTab.Add("keys missing at an owner", missing)
	convTab.Add("keys at stale version", staleVer)
	convTab.Add("migrator: keys scanned", reb.st.KeysScanned)
	convTab.Add("migrator: keys migrated", reb.st.KeysMigrated)
	convTab.Add("migrator: puts applied / stale / failed",
		fmt.Sprintf("%d / %d / %d", reb.st.PutsApplied, reb.st.PutsStale, reb.st.PutsFailed))
	convTab.Add("migrator: elapsed", reb.st.Elapsed.Round(time.Millisecond))
	convTab.Add("read repair: divergence observed", mst.DivergenceObserved)
	convTab.Add("read repair: stale replica healed", repaired)
	convTab.Add("hints queued / replayed / dropped",
		fmt.Sprintf("%d / %d / %d", mst.HintsQueued, mst.HintsReplayed, mst.HintsDropped))

	if converged != audited {
		return []*Table{latTab, convTab},
			fmt.Errorf("ablrebalance: %d/%d keys converged (missing %d, stale %d)", converged, audited, missing, staleVer)
	}
	if !repaired {
		return []*Table{latTab, convTab}, fmt.Errorf("ablrebalance: read repair did not heal the stale replica")
	}
	return []*Table{latTab, convTab}, nil
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
