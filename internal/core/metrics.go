package core

import (
	"sync"
	"time"
)

// Observation describes one completed redundant operation for metrics.
type Observation struct {
	// Winner is the name of the replica whose response was used; empty if
	// the operation failed.
	Winner string
	// Launched is how many copies were started.
	Launched int
	// Cancelled is how many launched copies were cancelled in flight when
	// the operation completed — reclaimed work, not failures.
	Cancelled int
	// Latency is the end-to-end operation latency.
	Latency time.Duration
	// Err is the operation's error, nil on success.
	Err error
	// Label is the call's traffic-class tag (set with WithLabel); empty
	// for unlabeled calls.
	Label string
}

// Observer receives per-operation metrics from a Group.
type Observer interface {
	Observe(Observation)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Observation)

// Observe implements Observer.
func (f ObserverFunc) Observe(o Observation) { f(o) }

// Counters is a ready-made Observer that aggregates wins per replica,
// total copies launched, successes, failures, and the full end-to-end
// latency distribution (a lock-free LatDigest, so quantiles are
// available without retaining per-operation samples), overall and per
// traffic class. All methods are safe for concurrent use.
type Counters struct {
	mu     sync.Mutex
	wins   map[string]int64
	all    labelAgg // every operation, labeled or not
	labels map[string]*labelAgg
}

// labelAgg aggregates a set of operations: all of them, or one traffic
// class (one WithLabel value).
type labelAgg struct {
	ops       int64
	failures  int64
	launched  int64
	cancelled int64
	totalLat  time.Duration // sum of successful-operation latencies
	lat       LatDigest     // successful-operation latencies
}

// count adds o to a's counters; the caller holds Counters.mu, and
// observes a successful o's latency into a.lat after releasing it.
func (a *labelAgg) count(o Observation) {
	a.ops++
	a.launched += int64(o.Launched)
	a.cancelled += int64(o.Cancelled)
	if o.Err != nil {
		a.failures++
	} else {
		a.totalLat += o.Latency
	}
}

// stats is a's LabelStats under label; the caller holds Counters.mu.
func (a *labelAgg) stats(label string) LabelStats {
	s := LabelStats{Label: label, Ops: a.ops, Failures: a.failures, Launched: a.launched, Cancelled: a.cancelled}
	if a.ops > 0 {
		s.CopiesPerOp = float64(a.launched) / float64(a.ops)
	}
	return s
}

// NewCounters returns an empty Counters.
func NewCounters() *Counters { return &Counters{wins: make(map[string]int64)} }

// Observe implements Observer.
func (c *Counters) Observe(o Observation) {
	c.mu.Lock()
	c.all.count(o)
	var la *labelAgg
	if o.Label != "" {
		if c.labels == nil {
			c.labels = make(map[string]*labelAgg)
		}
		if la = c.labels[o.Label]; la == nil {
			la = &labelAgg{}
			c.labels[o.Label] = la
		}
		la.count(o)
	}
	if o.Err != nil {
		c.mu.Unlock()
		return
	}
	c.wins[o.Winner]++
	c.mu.Unlock()
	c.all.lat.Observe(o.Latency)
	if la != nil {
		la.lat.Observe(o.Latency)
	}
}

// Ops returns the number of operations observed.
func (c *Counters) Ops() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all.ops
}

// Failures returns the number of failed operations.
func (c *Counters) Failures() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all.failures
}

// Wins returns a copy of the per-replica win counts.
func (c *Counters) Wins() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.wins))
	for k, v := range c.wins {
		out[k] = v
	}
	return out
}

// CancelledCopies returns the total number of copies cancelled in flight
// — work the engine reclaimed when operations completed before every
// copy did. The realized extra load is (launched - cancelled) / ops
// copies per operation, not launched / ops, whenever replicas honor
// cancellation.
func (c *Counters) CancelledCopies() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all.cancelled
}

// LaunchedCopies returns the total number of copies launched — the raw
// counter behind CopiesPerOp, exposed (like LabelStats.Launched) so
// controllers can difference two readings into a windowed extra-load
// measurement.
func (c *Counters) LaunchedCopies() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all.launched
}

// CopiesPerOp returns the average number of copies launched per operation —
// the realized redundancy overhead (1.0 means no redundancy used).
func (c *Counters) CopiesPerOp() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.all.stats("").CopiesPerOp
}

// MeanLatency returns the mean latency of successful operations.
func (c *Counters) MeanLatency() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	succ := c.all.ops - c.all.failures
	if succ == 0 {
		return 0
	}
	return c.all.totalLat / time.Duration(succ)
}

// LatencyQuantile estimates the p-th quantile of successful-operation
// latency (p in [0, 1]); ok is false when nothing has completed yet.
func (c *Counters) LatencyQuantile(p float64) (d time.Duration, ok bool) {
	return c.all.lat.Quantile(p)
}

// LatencyDigest exposes the aggregated latency distribution (mean,
// quantiles, count) of successful operations.
func (c *Counters) LatencyDigest() *LatDigest { return &c.all.lat }

// LabelStats is the aggregate for one traffic class (one WithLabel
// value) within a Counters.
type LabelStats struct {
	// Label is the class's tag.
	Label string
	// Ops and Failures count the class's operations.
	Ops, Failures int64
	// Launched counts the class's copies launched — the raw counter
	// behind CopiesPerOp, exposed so controllers can compute *windowed*
	// extra load from two successive snapshots (cumulative ratios hide
	// recent knob changes).
	Launched int64
	// Cancelled counts the class's copies cancelled in flight.
	Cancelled int64
	// CopiesPerOp is the class's realized redundancy overhead.
	CopiesPerOp float64
}

// Labels returns the per-class aggregates of every label observed so
// far, in unspecified order. Unlabeled operations are not included; they
// are visible only in the overall counters.
func (c *Counters) Labels() []LabelStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]LabelStats, 0, len(c.labels))
	for label, la := range c.labels {
		out = append(out, la.stats(label))
	}
	return out
}

// LabelSnapshot returns the aggregate for one traffic class and whether
// the label has been observed at all — the single-label form of Labels,
// for control loops polling one class per tick.
func (c *Counters) LabelSnapshot(label string) (LabelStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	la := c.labels[label]
	if la == nil {
		return LabelStats{}, false
	}
	return la.stats(label), true
}

// LabelLatencyDigest exposes the latency distribution of successful
// operations under label, or nil if the label has not been observed.
func (c *Counters) LabelLatencyDigest(label string) *LatDigest {
	c.mu.Lock()
	defer c.mu.Unlock()
	if la := c.labels[label]; la != nil {
		return &la.lat
	}
	return nil
}
