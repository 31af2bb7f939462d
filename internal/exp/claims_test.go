package exp

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"redundancy/internal/analytic"
)

// The golden run is every experiment at (MinScale, seed 3): the run
// testdata/<name>.golden pins and the run whose tables the claim tests
// below assert. Each experiment runs at most once per test binary, for
// whichever test asks first, so the order (-shuffle included) decides
// only which test pays for it.

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from this run")

// live names the experiments that run real servers on real sockets: their
// numbers move with the machine, so they get shape checks only. Every
// other experiment is a seeded model and must render byte for byte.
var live = map[string]bool{"ablshard": true, "ablrebalance": true, "ablwatch": true}

// goldenRun is one experiment's golden run, made once.
type goldenRun struct {
	once   sync.Once
	run    func(Options) ([]*Table, error)
	tables []*Table
	err    error
}

// goldenRuns holds every registered experiment's golden run by name.
var goldenRuns = func() map[string]*goldenRun {
	runs := map[string]*goldenRun{}
	for _, e := range All() {
		runs[e.Name] = &goldenRun{run: e.Run}
	}
	return runs
}()

// result runs the experiment the first time it is asked for; every
// caller shares its tables, which none may modify.
func (g *goldenRun) result() ([]*Table, error) {
	g.once.Do(func() { g.tables, g.err = g.run(Options{Scale: MinScale, Seed: 3}) })
	return g.tables, g.err
}

// TestAllExperimentsRunAtTinyScale runs every figure end to end: each
// must produce non-empty tables that render, and a model-driven figure
// must render exactly as its golden, testdata/<name>.golden. Run with
// -update to rewrite the goldens; a changed golden is a changed figure
// and needs an explanation. It comes first in this file so that, in the
// default order, it makes the runs the claim tests then read.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, e := range All() {
		t.Run(e.Name, func(t *testing.T) {
			tables, err := goldenRuns[e.Name].result()
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.Name)
			}
			var sb strings.Builder
			for _, tab := range tables {
				if tab.Title == "" || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
					t.Fatalf("%s: empty table %+v", e.Name, tab)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Fatalf("%s: row width %d != %d columns", e.Name, len(row), len(tab.Columns))
					}
				}
				tab.Fprint(&sb)
			}
			if !strings.Contains(sb.String(), "==") {
				t.Fatalf("%s: rendering produced no headers", e.Name)
			}
			if live[e.Name] {
				return
			}
			golden := filepath.Join("testdata", e.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("%s renders differently from %s:\n--- got\n%s--- want\n%s", e.Name, golden, got, want)
			}
		})
	}
}

// claimTable indexes one rendered table of the golden run by load and
// scheme, so a test can assert what the table's caption claims.
type claimTable struct {
	t     *testing.T
	title string
	cols  map[string]int
	rows  map[[2]string][]string
	all   [][]string // the rows in table order
	loads []string
}

// goldenTables indexes an experiment's golden-run tables.
func goldenTables(t *testing.T, name string) []claimTable {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the experiment")
	}
	g, ok := goldenRuns[name]
	if !ok {
		t.Fatalf("no experiment %q", name)
	}
	tabs, err := g.result()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]claimTable, len(tabs))
	for i, tab := range tabs {
		c := claimTable{t: t, title: tab.Title, cols: map[string]int{}, rows: map[[2]string][]string{}}
		for j, col := range tab.Columns {
			c.cols[col] = j
		}
		for _, r := range tab.Rows {
			if len(c.loads) == 0 || c.loads[len(c.loads)-1] != r[0] {
				c.loads = append(c.loads, r[0])
			}
			c.rows[[2]string{r[0], r[1]}] = r
			c.all = append(c.all, r)
		}
		out[i] = c
	}
	return out
}

func (c claimTable) cell(load, scheme, col string) string {
	c.t.Helper()
	r, ok := c.rows[[2]string{load, scheme}]
	j, okc := c.cols[col]
	if !ok || !okc {
		c.t.Fatalf("%s: no %q cell for %s at load %s", c.title, col, scheme, load)
	}
	return r[j]
}

func (c claimTable) num(load, scheme, col string) float64 {
	c.t.Helper()
	return c.parse(c.cell(load, scheme, col))
}

// parse reads a numeric cell; a percentage reads as its number.
func (c claimTable) parse(cell string) float64 {
	c.t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		c.t.Fatalf("%s: %v", c.title, err)
	}
	return v
}

// series returns col's values, in table order, over the rows whose
// first cell is first — a load, a service law, a quantity's name.
func (c claimTable) series(first, col string) []float64 {
	c.t.Helper()
	j, ok := c.cols[col]
	if !ok {
		c.t.Fatalf("%s: no column %q", c.title, col)
	}
	var out []float64
	for _, r := range c.all {
		if r[0] != first {
			continue
		}
		out = append(out, c.parse(r[j]))
	}
	if len(out) == 0 {
		c.t.Fatalf("%s: no row %q", c.title, first)
	}
	return out
}

func (c claimTable) lowest() string  { return c.loads[0] }
func (c claimTable) highest() string { return c.loads[len(c.loads)-1] }

// TestClaimsThm1 asserts Theorem 1: with exponential service times the
// threshold load below which two copies beat one is exactly 1/3, and the
// simulated threshold lands within 0.02 of it.
func TestClaimsThm1(t *testing.T) {
	c := goldenTables(t, "thm1")[0]
	if th := c.series("threshold load", "simulated")[0]; math.Abs(th-1.0/3) > 0.02 {
		t.Errorf("simulated threshold %g, want within 0.02 of 1/3", th)
	}
}

// TestClaimsFig2 asserts Figure 2's claim: for every service family the
// threshold load lies between ~0.26 (deterministic) and 0.5.
func TestClaimsFig2(t *testing.T) {
	for _, c := range goldenTables(t, "fig2") {
		for _, x := range c.loads {
			for _, th := range c.series(x, "threshold load") {
				if th < 0.25 || th >= 0.5 {
					t.Errorf("%s at %s: threshold %g, want in [0.25, 0.5)", c.title, x, th)
				}
			}
		}
	}
}

// TestClaimsFig5 asserts Figure 5's crossover, the threshold of the
// paper's disk-backed store (§2.2; it measures ~30 %): two copies beat
// one on the mean at the lowest load, and stop beating it at a load no
// higher than 0.45, the queueing analysis's (25 %, 50 %) band with room
// for the cluster's own effects.
func TestClaimsFig5(t *testing.T) {
	c := goldenTables(t, "fig5")[0]
	one, two := c.cols["mean 1c (ms)"], c.cols["mean 2c (ms)"]
	var below, above float64
	for _, r := range c.all {
		if load := c.parse(r[0]); c.parse(r[two]) < c.parse(r[one]) {
			below = load
		} else if above == 0 {
			above = load
		}
	}
	if below < 0.1 || above == 0 || above > 0.45 {
		t.Errorf("two copies win the mean up to load %g and lose it from %g: want a crossing in [0.1, 0.45]", below, above)
	}
}

// TestClaimsFig4 asserts Figure 4's claim: for each service law, the
// threshold load never rises as the client-side overhead grows.
func TestClaimsFig4(t *testing.T) {
	c := goldenTables(t, "fig4")[0]
	for _, law := range c.loads {
		ths := c.series(law, "threshold load")
		for i := 1; i < len(ths); i++ {
			if ths[i] > ths[i-1] {
				t.Errorf("%s: threshold rises from %g to %g as overhead grows", law, ths[i-1], ths[i])
			}
		}
	}
}

// TestClaimsFig16 asserts Figure 16's claim: querying 2 or more DNS
// servers cuts response time in every column, and 10 copies cut it
// more than 2 do.
func TestClaimsFig16(t *testing.T) {
	c := goldenTables(t, "fig16")[0]
	for _, col := range []string{"mean", "median", "p95", "p99"} {
		for _, copies := range c.loads {
			if n, _ := strconv.Atoi(copies); n < 2 {
				continue
			}
			if r := c.series(copies, col)[0]; r <= 0 {
				t.Errorf("%s copies: %s reduction %g%%, want positive", copies, col, r)
			}
		}
		if two, ten := c.series("2", col)[0], c.series("10", col)[0]; ten <= two {
			t.Errorf("%s reduction: 10 copies %g%% not above 2 copies %g%%", col, ten, two)
		}
	}
}

// TestClaimsFig17 asserts Figure 17's marginal analysis: the 2nd DNS
// server saves more than the break-even ms per extra KB on the mean,
// and some later server does not.
func TestClaimsFig17(t *testing.T) {
	const col = "marginal mean (ms/KB)"
	c := goldenTables(t, "fig17")[0]
	if m := c.series("2", col)[0]; m < analytic.BreakEvenMsPerKB {
		t.Errorf("2nd server: marginal mean %g ms/KB, want >= %g", m, analytic.BreakEvenMsPerKB)
	}
	below := false
	for _, servers := range c.loads[1:] {
		below = below || c.series(servers, col)[0] < analytic.BreakEvenMsPerKB
	}
	if !below {
		t.Errorf("every server past the 2nd clears %g ms/KB on the mean, want one that does not", analytic.BreakEvenMsPerKB)
	}
}

// TestClaimsHandshake asserts §3.1's claim: duplicating the TCP
// handshake saves about 170 ms of mean latency per extra KB, within 15%
// at every RTT.
func TestClaimsHandshake(t *testing.T) {
	c := goldenTables(t, "handshake")[0]
	for _, rtt := range c.loads {
		if m := c.series(rtt, "mean ms/KB")[0]; math.Abs(m-170) > 0.15*170 {
			t.Errorf("RTT %s ms: mean saving %g ms/KB, want within 15%% of 170", rtt, m)
		}
	}
}

// TestClaimsAblHedge asserts the two ablhedge captions.
func TestClaimsAblHedge(t *testing.T) {
	const fixed, adaptive, full = "fixed delay (5x mean svc)", "adaptive p90", "full replication"
	tabs := goldenTables(t, "ablhedge")
	pareto, expo := tabs[0], tabs[1]
	// edge is adaptive's p99 advantage over the fixed guess, as a ratio.
	edge := func(c claimTable, load string) float64 {
		return c.num(load, fixed, "p99") / c.num(load, adaptive, "p99")
	}
	for _, c := range tabs {
		for _, load := range c.loads {
			if cp := c.num(load, adaptive, "copies/op"); cp < 1.05 || cp > 1.2 {
				t.Errorf("%s: adaptive p90 spends %g copies/op at load %s, want ~1.1", c.title, cp, load)
			}
		}
	}
	for _, load := range []string{"0.1", "0.3"} {
		if e := edge(pareto, load); e <= 1 {
			t.Errorf("Pareto load %s: adaptive p99 does not beat the fixed guess (edge %.3g)", load, e)
		}
		if ep, ee := edge(pareto, load), edge(expo, load); ee >= ep {
			t.Errorf("load %s: adaptive's edge under exponential service %.3g is not below the Pareto edge %.3g", load, ee, ep)
		}
	}
	if e := edge(expo, "0.45"); e > 1.05 {
		t.Errorf("exponential load 0.45: adaptive edge %.3g, want gone (<= 1.05)", e)
	}
	lo, hi := pareto.lowest(), pareto.highest()
	for _, sc := range []string{"no hedging", fixed, adaptive} {
		if pareto.num(lo, full, "p99") >= pareto.num(lo, sc, "p99") {
			t.Errorf("Pareto load %s: full replication p99 not below %s", lo, sc)
		}
		if pareto.num(hi, full, "p99") <= pareto.num(hi, sc, "p99") {
			t.Errorf("Pareto load %s: full replication p99 not above %s", hi, sc)
		}
	}
}

// TestClaimsAblCancel asserts the ablcancel caption: below the 1/3
// threshold governed fan-out 2 matches fixed fan-out 2; above it fixed
// collapses while the governor gates and falls back toward k=1.
func TestClaimsAblCancel(t *testing.T) {
	const base, fixed, gov = "no hedging", "fixed fan-out 2", "governed fan-out 2"
	c := goldenTables(t, "ablcancel")[0]
	for _, load := range c.loads {
		l, _ := strconv.ParseFloat(load, 64)
		g, f, b := c.num(load, gov, "p99"), c.num(load, fixed, "p99"), c.num(load, base, "p99")
		gated := c.num(load, gov, "gated%")
		if l < 1.0/3 {
			if g > f*1.10 || gated > 5 {
				t.Errorf("load %s: governed p99 %g (gated %g%%) vs fixed %g, want equal within noise", load, g, gated, f)
			}
			continue
		}
		if f <= b || gated < 50 || g-b >= f-g {
			t.Errorf("load %s: fixed p99 %g, governed %g (gated %g%%), k=1 %g; want fixed above k=1 and governed gating back toward k=1",
				load, f, g, gated, b)
		}
	}
}

// TestClaimsAblSLO asserts the ablslo caption against its target (p99
// 11 ms) and budget (0.35 extra copies/op).
func TestClaimsAblSLO(t *testing.T) {
	const k1, k2, ctl = "fixed k=1", "fixed k=2@p50", "slo controller"
	const budget = 0.35
	c := goldenTables(t, "ablslo")[0]
	for _, load := range c.loads {
		if c.cell(load, k1, "meets") != "MISS" {
			t.Errorf("load %s: fixed k=1 meets the target", load)
		}
		spend := c.num(load, ctl, "copies/op")
		if c.cell(load, ctl, "meets") == "yes" {
			if spend > 1+budget || spend >= c.num(load, k2, "copies/op") {
				t.Errorf("load %s: controller meets at %g copies/op, want affordable and below k=2@p50's %g",
					load, spend, c.num(load, k2, "copies/op"))
			}
		} else if spend > 1+budget*1.1 {
			t.Errorf("load %s: controller misses at %g copies/op, want bounded by the budget", load, spend)
		}
	}
	lo, hi := c.lowest(), c.highest()
	if c.cell(lo, k2, "meets") != "yes" || c.num(lo, k2, "copies/op") < 1.4 {
		t.Errorf("load %s: fixed k=2@p50 should meet the target by overpaying (>= 1.4 copies/op)", lo)
	}
	if c.cell(hi, k2, "meets") != "MISS" {
		t.Errorf("load %s: fixed k=2@p50 should miss past the threshold", hi)
	}
	met := 0
	for _, load := range c.loads {
		if c.cell(load, ctl, "meets") == "yes" {
			met++
		}
	}
	if met < 3 {
		t.Errorf("controller met the target at %d loads, want >= 3", met)
	}
}

// loadOf reads a load cell as its number.
func loadOf(t *testing.T, load string) float64 {
	t.Helper()
	l, err := strconv.ParseFloat(load, 64)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestClaimsFig10 asserts Figure 10's caption: with 400 KB files the
// client's transfer cost per copy stops replication helping. Two copies
// win no mean from load 0.3. The golden run has them winning it at 0.2
// as well as 0.1 (EXPERIMENTS.md), so the claim holds from 0.3.
func TestClaimsFig10(t *testing.T) {
	c := goldenTables(t, "fig10")[0]
	for _, load := range c.loads {
		if loadOf(t, load) < 0.3 {
			continue
		}
		if one, two := c.series(load, "mean 1c (ms)")[0], c.series(load, "mean 2c (ms)")[0]; two < one {
			t.Errorf("load %s: 2 copies win the mean, %g ms vs %g ms", load, two, one)
		}
	}
}

// TestClaimsFig11 asserts Figure 11's caption: with sub-millisecond
// in-memory service two copies win no mean past the lowest load.
func TestClaimsFig11(t *testing.T) {
	c := goldenTables(t, "fig11")[0]
	for _, load := range c.loads[1:] {
		if one, two := c.series(load, "mean 1c (ms)")[0], c.series(load, "mean 2c (ms)")[0]; two < one {
			t.Errorf("load %s: 2 copies win the mean, %g ms vs %g ms", load, two, one)
		}
	}
}

// TestClaimsFig12 asserts Figure 12's caption: for memcached the two
// means are within 1% at load 0.1 and 2 copies are worse from 0.2, while
// the 99.9th percentile improves up to load 0.4 and worsens at 0.45.
func TestClaimsFig12(t *testing.T) {
	c := goldenTables(t, "fig12")[0]
	for _, load := range c.loads {
		l := loadOf(t, load)
		one, two := c.series(load, "mean 1c (ms)")[0], c.series(load, "mean 2c (ms)")[0]
		switch {
		case l < 0.2 && math.Abs(two-one) > 0.01*one:
			t.Errorf("load %s: means %g ms (1c) and %g ms (2c), want within 1%%", load, one, two)
		case l >= 0.2 && two <= one:
			t.Errorf("load %s: 2 copies' mean %g ms not worse than 1 copy's %g ms", load, two, one)
		}
		tail1, tail2 := c.series(load, "p99.9 1c (ms)")[0], c.series(load, "p99.9 2c (ms)")[0]
		if better := tail2 < tail1; better != (l <= 0.4) {
			t.Errorf("load %s: p99.9 %g ms (2c) vs %g ms (1c), want better exactly up to load 0.4", load, tail2, tail1)
		}
	}
	if c.highest() != "0.45" {
		t.Errorf("highest load %s, want 0.45", c.highest())
	}
}

// TestClaimsFig14 asserts Figure 14's three panels on every fabric: the
// median improvement is never negative from load 0.4, replication lowers
// the 99th percentile at every load, and the replicated FCT CCDF is never
// above the unreplicated one. On the paper's base fabric, 5 Gbps / 2 us,
// replication cuts the median by at least 8 % at load 0.4, cuts it less
// at the lowest load than at 0.4, and avoids retransmission timeouts at
// the highest load.
func TestClaimsFig14(t *testing.T) {
	const fabric = "5 Gbps, 2 us"
	tabs := goldenTables(t, "fig14")
	median, tail, ccdf := tabs[0], tabs[1], tabs[2]
	for _, fabric := range median.loads {
		loads := median.series(fabric, "load")
		for i, imp := range median.series(fabric, "% improvement") {
			if loads[i] >= 0.4 && imp < 0 {
				t.Errorf("%s at load %g: median improvement %g%%, want >= 0", fabric, loads[i], imp)
			}
		}
	}
	// improvement is replication's cut of the median on fabric at load,
	// as a fraction of the unreplicated median.
	improvement := func(load string) float64 {
		return 1 - median.num(fabric, load, "median repl (ms)")/median.num(fabric, load, "median base (ms)")
	}
	if imp := improvement("0.4"); imp < 0.08 {
		t.Errorf("%s at load 0.4: median improvement %.1f%%, want >= 8%% (the paper reports ~38%%)", fabric, imp*100)
	}
	lowest := tail.lowest() // panel (b) runs the base fabric's loads
	if low, mid := improvement(lowest), improvement("0.4"); low >= mid {
		t.Errorf("%s: median improvement at load %s (%.1f%%) not below load 0.4's (%.1f%%)", fabric, lowest, low*100, mid*100)
	}
	for _, load := range tail.loads {
		if base, repl := tail.series(load, "p99 base (ms)")[0], tail.series(load, "p99 repl (ms)")[0]; repl >= base {
			t.Errorf("load %s: replicated p99 %g ms not below %g ms", load, repl, base)
		}
	}
	high := tail.highest()
	if base, repl := tail.series(high, "timeouts base")[0], tail.series(high, "timeouts repl")[0]; base <= repl {
		t.Errorf("load %s: %g timeouts replicated, %g unreplicated; want replication to avoid some", high, repl, base)
	}
	for _, th := range ccdf.loads {
		if base, repl := ccdf.series(th, "frac later base")[0], ccdf.series(th, "frac later repl")[0]; repl > base {
			t.Errorf("%s ms: replicated CCDF %g above unreplicated %g", th, repl, base)
		}
	}
}

// TestClaimsAblFatTree asserts the fat-tree ablation against the priority
// rule the paper's scheme rests on (§2.4): replicas ride a strictly lower
// class. Then replicating more of each flow, up to every packet, never
// costs the originals more than 5 % of the unreplicated median, and
// replicating every packet loses replicas to the congestion it adds;
// replicas at the originals' own priority cost them at least 5 % of the
// median against low-priority ones.
func TestClaimsAblFatTree(t *testing.T) {
	const col = "median FCT (ms)"
	tabs := goldenTables(t, "ablfattree")
	count, prio := tabs[0], tabs[1]
	base := count.series(count.lowest(), col)[0]
	for _, pkts := range count.loads[1:] {
		if m := count.series(pkts, col)[0]; m > base*1.05 {
			t.Errorf("%s packets replicated: median %g ms, more than 5%% above the unreplicated %g ms", pkts, m, base)
		}
	}
	if drops := count.series("all", "replica drops")[0]; drops == 0 {
		t.Error("replicating every packet dropped no replica: the replicas did not absorb the congestion")
	}
	low, same := prio.series("low-priority replicas", col)[0], prio.series("same-priority replicas", col)[0]
	if same < low*1.05 {
		t.Errorf("same-priority replicas: median %g ms, want at least 5%% above low-priority replicas' %g ms", same, low)
	}
}
