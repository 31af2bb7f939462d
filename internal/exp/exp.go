// Package exp is the experiment harness: one function per table/figure of
// the paper, each returning a printable Table whose rows correspond to the
// series the paper plots. cmd/redbench exposes them on the command line
// and the repository-root benchmarks regenerate them at reduced scale.
//
// Every function accepts Options controlling scale and seed, so the full
// paper-scale run and a quick CI run share one code path. EXPERIMENTS.md
// records paper-vs-measured values produced by this package.
package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Options control experiment scale.
type Options struct {
	// Scale multiplies sample sizes; 1.0 is the documented full scale,
	// benchmarks use less. Values below MinScale are clamped.
	Scale float64
	// Seed seeds all randomness.
	Seed int64
}

// MinScale is the smallest accepted scale factor.
const MinScale = 0.01

func (o Options) scale(n int) int {
	s := o.Scale
	if s <= 0 {
		s = 1
	}
	if s < MinScale {
		s = MinScale
	}
	v := int(float64(n) * s)
	if v < 100 {
		v = 100
	}
	return v
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Caption string
	Columns []string
	Rows    [][]string
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	if t.Caption != "" {
		fmt.Fprintf(w, "%s\n", t.Caption)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// Experiment is a named, runnable reproduction target.
type Experiment struct {
	Name string // e.g. "fig1"
	Desc string
	Run  func(Options) ([]*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Queueing model: mean response vs load and CCDF (deterministic & Pareto)", Fig1},
		{"fig2", "Threshold load vs variance (Weibull, Pareto, two-point families)", Fig2},
		{"fig3", "Threshold load for random discrete service-time distributions", Fig3},
		{"fig4", "Effect of client-side overhead on the threshold load", Fig4},
		{"thm1", "Theorem 1: exponential service threshold = 1/3", Theorem1},
		{"fig5", "Disk-backed database, base configuration", Fig5},
		{"fig6", "Disk DB: 0.04 KB files", Fig6},
		{"fig7", "Disk DB: Pareto file sizes", Fig7},
		{"fig8", "Disk DB: cache:disk ratio 0.01", Fig8},
		{"fig9", "Disk DB: EC2-style noisy nodes", Fig9},
		{"fig10", "Disk DB: 400 KB files", Fig10},
		{"fig11", "Disk DB: cache:disk ratio 2 (fully resident)", Fig11},
		{"fig12", "memcached: response time vs load", Fig12},
		{"fig13", "memcached: stub vs real CDF at 0.1% load", Fig13},
		{"fig14", "Fat-tree in-network replication: flow completion times", Fig14},
		{"fig15", "DNS response time CCDF for 1/2/5/10 servers", Fig15},
		{"fig16", "DNS percent latency reduction vs number of copies", Fig16},
		{"fig17", "DNS marginal latency savings (ms/KB) vs break-even", Fig17},
		{"handshake", "TCP handshake duplication (§3.1)", Handshake},
		{"ablfattree", "Ablation: replica count and priority class in the fat-tree", AblationFatTree},
		{"ablqueueing", "Ablation: server count N and replication factor k in the queueing model", AblationQueueing},
		{"ablhedge", "Ablation: fixed-delay vs adaptive-quantile hedging vs full replication across loads", AblationHedging},
		{"ablquorum", "Ablation: R-of-N quorum reads vs first-response — the latency price of consistency", AblationQuorum},
		{"ablcancel", "Ablation: load-aware governor vs fixed fan-out-2 across the threshold load", AblationCancel},
		{"ablshard", "Ablation: sharded live stack — redundant primary+secondary reads vs load and value size", AblationShard},
		{"ablrebalance", "Ablation: live reshard — governed anti-entropy migration, version audit, and read repair", AblationRebalance},
		{"ablwatch", "Ablation: redundant prefix watch — event delivery p99 single replica vs subscribe-everywhere, exactly-once across a shard kill", AblationWatch},
		{"ablslo", "Ablation: self-tuning SLO controller vs fixed k=1 and fixed k=2@p50 across a load ramp", AblationSLO},
	}
}

// ByName returns the experiment with the given name.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
