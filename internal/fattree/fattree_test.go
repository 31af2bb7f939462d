package fattree

import (
	"strings"
	"testing"

	"redundancy/internal/dist"
	"redundancy/internal/sim"
)

func TestTopologyCounts(t *testing.T) {
	if NumHosts != 54 {
		t.Errorf("NumHosts = %d, want 54", NumHosts)
	}
	if TotalSwitches != 45 {
		t.Errorf("TotalSwitches = %d, want 45", TotalSwitches)
	}
	if NumCore != 9 {
		t.Errorf("NumCore = %d, want 9", NumCore)
	}
}

func testNet(t *testing.T) (*network, *sim.Engine) {
	t.Helper()
	cfg := Config{Load: 0.1, Flows: 1}
	cfg.setDefaults()
	eng := sim.NewEngine(1)
	return newNetwork(&cfg, eng), eng
}

func TestPathHopCounts(t *testing.T) {
	n, _ := testNet(t)
	cases := []struct {
		src, dst, hops int
		desc           string
	}{
		{0, 1, 2, "same edge"},         // hostUp + hostDown
		{0, 3, 4, "same pod"},          // + edgeUp + edgeDn
		{0, 6, 4, "same pod far edge"}, // hosts 0..8 are pod 0
		{0, 9, 6, "adjacent pod"},      // host 9 is pod 1
		{0, 27, 6, "inter-pod"},        // + aggUp + aggDn
	}
	for _, c := range cases {
		p, err := n.path(c.src, c.dst, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", c.desc, err)
		}
		if len(p) != c.hops {
			t.Errorf("%s (%d->%d): %d hops, want %d", c.desc, c.src, c.dst, len(p), c.hops)
		}
	}
	if _, err := n.path(5, 5, 1, false); err == nil {
		t.Error("src == dst accepted")
	}
}

func TestReplicaPathDiffersWhereAlternativesExist(t *testing.T) {
	n, _ := testNet(t)
	for fid := uint64(1); fid <= 50; fid++ {
		norm, err := n.path(0, 30, fid, false)
		if err != nil {
			t.Fatal(err)
		}
		repl, err := n.path(0, 30, fid, true)
		if err != nil {
			t.Fatal(err)
		}
		// Access links are shared; the fabric links must differ.
		sameFabric := true
		for i := 1; i < len(norm)-1; i++ {
			if norm[i] != repl[i] {
				sameFabric = false
				break
			}
		}
		if sameFabric {
			t.Fatalf("flow %d: replica path identical through the fabric", fid)
		}
		// First and last hops (host access links) are necessarily shared.
		if norm[0] != repl[0] || norm[len(norm)-1] != repl[len(repl)-1] {
			t.Fatalf("flow %d: access links should be shared", fid)
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	n, _ := testNet(t)
	counts := map[*link]int{}
	for fid := uint64(0); fid < 3000; fid++ {
		p, err := n.path(0, 30, fid, false)
		if err != nil {
			t.Fatal(err)
		}
		counts[p[1]]++ // edge->agg choice
	}
	// 3 uplinks, 3000 flows: each should get roughly 1000.
	if len(counts) != 3 {
		t.Fatalf("flows used %d agg uplinks, want 3", len(counts))
	}
	for l, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("uplink %p got %d/3000 flows; ECMP imbalanced", l, c)
		}
	}
}

func TestLinkStrictPriority(t *testing.T) {
	eng := sim.NewEngine(1)
	l := newLink(eng, 8e6, 0, 1<<20) // 1 byte/us for easy math
	var order []string
	mk := func(name string, replica bool) *packet {
		p := &packet{size: 100, replica: replica, lowPrio: replica}
		p.arrive = func() { order = append(order, name) }
		return p
	}
	// First packet occupies the link; then queue a replica before an
	// original. The original must still be served first.
	l.send(mk("head", false))
	l.send(mk("replica", true))
	l.send(mk("original", false))
	eng.Run()
	if len(order) != 3 || order[0] != "head" || order[1] != "original" || order[2] != "replica" {
		t.Errorf("service order %v, want [head original replica]", order)
	}
}

func TestLinkReplicaPushOut(t *testing.T) {
	eng := sim.NewEngine(1)
	l := newLink(eng, 8e6, 0, 250) // room for 2 queued packets of 100B
	delivered := map[string]bool{}
	mk := func(name string, replica bool) *packet {
		p := &packet{size: 100, replica: replica, lowPrio: replica}
		p.arrive = func() { delivered[name] = true }
		return p
	}
	l.send(mk("head", false)) // in service
	l.send(mk("r1", true))
	l.send(mk("r2", true))
	// Queue now holds 200B of replicas. Two arriving originals must push
	// both replicas out rather than being dropped.
	l.send(mk("o1", false))
	l.send(mk("o2", false))
	eng.Run()
	if !delivered["o1"] || !delivered["o2"] {
		t.Error("originals were dropped while replicas held the buffer")
	}
	if delivered["r1"] && delivered["r2"] {
		t.Error("no replica was pushed out of the full buffer")
	}
	if l.droppedPackets[0] != 0 {
		t.Errorf("original drops = %d, want 0", l.droppedPackets[0])
	}
}

func TestLinkDropsWhenFull(t *testing.T) {
	eng := sim.NewEngine(1)
	l := newLink(eng, 8e6, 0, 150)
	delivered := 0
	mk := func() *packet {
		p := &packet{size: 100}
		p.arrive = func() { delivered++ }
		return p
	}
	l.send(mk()) // serving
	l.send(mk()) // queued (100 <= 150)
	l.send(mk()) // dropped (200 > 150)
	eng.Run()
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
	if l.droppedPackets[0] != 1 {
		t.Errorf("drops = %d, want 1", l.droppedPackets[0])
	}
}

// runPair runs the experiment with and without replication at the given
// load, at test scale.
func runPair(t *testing.T, load float64, flows, warmup int) (base, repl *Result) {
	t.Helper()
	var out [2]*Result
	for i, r := range []bool{false, true} {
		res, err := Run(Config{Load: load, Replicate: r, Flows: flows, Warmup: warmup, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out[0], out[1]
}

func TestReplicasNeverCauseOriginalDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulation is slow")
	}
	t.Parallel()
	// The replicated arm must not drop more originals than it would
	// without the replicas present in the buffers; replicas absorb the
	// drops instead. (Exact equality does not hold because replication
	// changes retransmission behaviour, but the replica class must take
	// losses and originals must not explode.)
	base, repl := runPair(t, 0.7, 2000, 5000)
	if repl.DroppedReplicas == 0 {
		t.Error("expected replica drops under congestion (lowest priority)")
	}
	if repl.DroppedOriginals > base.DroppedOriginals*2 {
		t.Errorf("original drops exploded with replication: %d vs %d",
			repl.DroppedOriginals, base.DroppedOriginals)
	}
}

func TestElephantImpactNegligible(t *testing.T) {
	if testing.Short() {
		t.Skip("packet simulation is slow")
	}
	t.Parallel()
	base, repl := runPair(t, 0.4, 3000, 4000)
	if base.ElephantMean == 0 || repl.ElephantMean == 0 {
		t.Skip("no elephants completed at this scale")
	}
	ratio := repl.ElephantMean / base.ElephantMean
	if ratio > 1.25 || ratio < 0.75 {
		t.Errorf("elephant mean FCT changed %.0f%%; paper reports ~0.1%%", (ratio-1)*100)
	}
}

// TestAllSmallFlowsComplete: Run refuses to report a sample that lost
// measured small flows, whose completion times would be censored; every
// other run in the repository, the golden fig14 and ablfattree runs
// included, thereby asserts that all of its small flows completed.
func TestAllSmallFlowsComplete(t *testing.T) {
	_, err := Run(Config{Load: 0.4, Flows: 100, Warmup: 100, Seed: 42, Drain: 1e-6})
	if err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Errorf("a 1 us drain: err = %v, want the small flows reported incomplete", err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() float64 {
		res, err := Run(Config{Load: 0.2, Flows: 300, Warmup: 300, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res.Small.Mean()
	}
	if run() != run() {
		t.Error("same-seed runs diverged")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{Load: 0, Flows: 10}); err == nil {
		t.Error("zero load accepted")
	}
	if _, err := Run(Config{Load: 1.5, Flows: 10}); err == nil {
		t.Error("load > 1 accepted")
	}
	if _, err := Run(Config{Load: 0.2, Flows: 0}); err == nil {
		t.Error("zero flows accepted")
	}
}

func TestFlowSizeDistributionShape(t *testing.T) {
	d := DefaultFlowSizes()
	// >80% of flows below 10 KB, sizes within [1 KB, 3 MB].
	if q := d.(interface{ Quantile(float64) float64 }).Quantile(0.82); q > 10500 {
		t.Errorf("82nd percentile flow size %g, want <= ~10 KB", q)
	}
	if lo := d.(interface{ Quantile(float64) float64 }).Quantile(0); lo < 999 {
		t.Errorf("min size %g", lo)
	}
	if hi := d.(interface{ Quantile(float64) float64 }).Quantile(1); hi > 3.1e6 {
		t.Errorf("max size %g", hi)
	}
}

func TestSingleFlowPhysics(t *testing.T) {
	// One small inter-pod flow on an otherwise idle fabric: the completion
	// time must match store-and-forward arithmetic. A 2-segment flow fits
	// the initial window, so FCT is governed purely by serialization and
	// propagation: the last segment queues behind the first on the access
	// link, then pipelines across the 6 hops.
	cfg := Config{
		Load: 0.0001, Flows: 1, Warmup: 0, Seed: 1,
		FlowSize: dist.Deterministic{V: 2 * segPayload},
	}
	cfg.setDefaults()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Small.N() != 1 {
		t.Fatalf("measured %d flows, want 1", res.Small.N())
	}
	fct := res.Small.Mean()
	tx := float64(segWire) * 8 / cfg.LinkBandwidth
	// Lower bound: seg2 serializes twice on the access link (behind seg1)
	// then crosses at least 1 more hop + 2 propagation delays (same-edge
	// pair). Upper bound: full 6-hop inter-pod path, pipelined.
	lo := 2*tx + 1*tx + 2*cfg.LinkDelay
	hi := 2*tx + 5*tx + 6*cfg.LinkDelay + 1e-6
	if fct < lo || fct > hi {
		t.Errorf("single-flow FCT %.3gus outside physics bounds [%.3g, %.3g]us",
			fct*1e6, lo*1e6, hi*1e6)
	}
}

func TestSingleSegmentFlow(t *testing.T) {
	// Minimum-size flow: one segment, no queueing, no retransmission.
	cfg := Config{
		Load: 0.0001, Flows: 1, Warmup: 0, Seed: 2,
		FlowSize: dist.Deterministic{V: 100},
	}
	cfg.setDefaults()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Small.N() != 1 {
		t.Fatalf("measured %d flows, want 1", res.Small.N())
	}
	if res.Timeouts != 0 {
		t.Errorf("idle-fabric flow suffered %d timeouts", res.Timeouts)
	}
	wire := 100 + (segWire - segPayload)
	tx := float64(wire) * 8 / cfg.LinkBandwidth
	if fct := res.Small.Mean(); fct < tx || fct > 6*tx+6*cfg.LinkDelay+1e-6 {
		t.Errorf("1-segment FCT %.3gus implausible", fct*1e6)
	}
}
