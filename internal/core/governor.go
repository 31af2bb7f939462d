package core

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements the load-aware redundancy governor. The paper's
// central trade-off is that redundant copies buy latency only while the
// added load keeps server utilization below a threshold (25-50% base
// load depending on service-time variance; exactly 1/3 for exponential
// service) — above it, redundancy *hurts*, because the extra copies
// queue behind each other. A Governor measures the offered load a
// replica set actually experiences, and a governed strategy (any with a
// Governor method: GovernedStrategy, built with LoadAware, or the SLO
// controller) sheds redundant copies, degrading fan-out toward 1, when
// the measurement crosses the threshold. A group's call keeps each copy
// it sheds as a failover, launched only once the copies sent have all
// failed: above the threshold a read costs one copy while its replicas
// answer, and one dead replica still does not fail it.

// DefaultGovernorThreshold is the gate-on utilization when none is
// configured, in in-flight copies per replica. By Little's law an FCFS
// replica at realized utilization rho holds about rho/(1-rho) copies in
// flight (queued + serving); the paper's exponential-service threshold —
// duplication stops paying once base load exceeds 1/3, i.e. realized
// load 2/3 — corresponds to (2/3)/(1/3) = 2 copies in flight.
const DefaultGovernorThreshold = 2.0

// Governor measures a replica set's offered load and decides when
// redundancy may be afforded. It tracks the copies currently in flight
// across the group (incremented at launch, decremented when a copy
// completes — or is cancelled and reclaimed, which is what makes
// cancellation capacity the governor can re-spend) and folds one
// utilization sample per operation, in-flight copies per replica, into
// an EWMA using the same lock-free LatDigest machinery that backs
// per-replica latency estimates. All methods are safe for concurrent
// use; a Governor may be shared by several groups to govern their
// combined load.
type Governor struct {
	threshold float64 // gate redundancy on at this utilization
	low       float64 // gate off again only below this (hysteresis)

	inflight atomic.Int64
	capacity atomic.Int64
	// load is the EWMA + histogram of utilization samples, stored in
	// fixed-point (govUtilScale = utilization 1.0) so the digest's
	// nanosecond-oriented bins keep resolution.
	load  LatDigest
	gated atomic.Bool
	flips atomic.Int64
	// Background traffic-class accounting: AllowBackground grants and
	// deferrals (see that method for the policy).
	bgAllowed  atomic.Int64
	bgDeferred atomic.Int64
}

// govUtilScale is the fixed-point scale for utilization samples in the
// digest: utilization 1.0 is stored as 1<<20.
const govUtilScale = float64(1 << 20)

// NewGovernor creates a Governor that withholds redundancy while
// measured utilization (in-flight copies per replica) is at or above
// threshold, re-enabling it only once utilization falls to
// threshold - hysteresis — the hysteresis band prevents flapping, since
// the act of shedding copies itself lowers the measurement. A
// non-positive threshold means DefaultGovernorThreshold; a hysteresis
// outside (0, threshold) defaults to threshold/4.
func NewGovernor(threshold, hysteresis float64) *Governor {
	if threshold <= 0 {
		threshold = DefaultGovernorThreshold
	}
	if hysteresis <= 0 || hysteresis >= threshold {
		hysteresis = threshold / 4
	}
	return &Governor{threshold: threshold, low: threshold - hysteresis}
}

// Observe folds one utilization sample (offered load, in whatever unit
// the thresholds use; the group integration uses in-flight copies per
// replica) into the governor's EWMA. The group call path samples
// automatically; external drivers with their own utilization signal,
// such as a load balancer, call it directly.
func (g *Governor) Observe(utilization float64) {
	if utilization < 0 {
		utilization = 0
	}
	g.load.observe(utilization * govUtilScale)
}

// sample folds the current in-flight-per-replica utilization, called
// once per Do with the group's current size.
func (g *Governor) sample(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	g.capacity.Store(int64(capacity))
	g.Observe(float64(g.inflight.Load()) / float64(capacity))
}

// copyStarted and copyDone bracket one copy's flight. copyDone runs when
// the copy completes or observes cancellation, so cancelled losers
// return their capacity to the governor immediately.
func (g *Governor) copyStarted() { g.inflight.Add(1) }
func (g *Governor) copyDone()    { g.inflight.Add(-1) }

// Allow reports how many of k desired copies the measured load affords:
// k below the hysteresis band, degrading toward 1 as utilization climbs
// through it, and exactly 1 once the threshold is crossed — until
// utilization falls back below the band. With no samples yet (cold
// start) redundancy is allowed in full. The gate moves on every call,
// k = 1 included: a caller already clamped to one copy (an SLO class
// the gate drove to rung 0) is what sees the load fall, and only its
// calls can open the gate again.
func (g *Governor) Allow(k int) int {
	v, ok := g.load.value()
	if !ok {
		return k
	}
	util := v / govUtilScale
	gated := g.gated.Load()
	if gated && util <= g.low || !gated && util >= g.threshold {
		gated = !gated
		g.gated.Store(gated)
		g.flips.Add(1)
	}
	if k <= 1 {
		return k
	}
	if gated {
		return 1
	}
	if k > 2 && util > g.low {
		// Inside the band, shed extra copies linearly before the hard
		// gate: large fan-outs come down through 2 rather than cliffing
		// from k to 1.
		frac := (g.threshold - util) / (g.threshold - g.low)
		allowed := 1 + int(frac*float64(k-1)+0.5)
		if allowed < 2 {
			allowed = 2
		}
		if allowed > k {
			allowed = k
		}
		return allowed
	}
	return k
}

// AllowBackground reports whether the measured load affords a unit of
// background work — anti-entropy migration batches, read-repair pushes,
// hint replays — right now. Where Allow degrades *foreground* redundancy
// only past the gate-on threshold, background traffic is the first thing
// to yield: it proceeds only while utilization sits below the low-water
// mark of the hysteresis band (foreground redundancy is at full fan-out
// there, with headroom to spare), and defers everywhere above it. With
// no samples yet (cold start, or a governor fed only by the background
// worker itself) background work is allowed — an idle system must still
// converge. Callers poll with backoff rather than block.
func (g *Governor) AllowBackground() bool {
	v, ok := g.load.value()
	if !ok {
		g.bgAllowed.Add(1)
		return true
	}
	if v/govUtilScale < g.low {
		g.bgAllowed.Add(1)
		return true
	}
	g.bgDeferred.Add(1)
	return false
}

// Utilization returns the EWMA utilization estimate and whether any
// sample has been observed.
func (g *Governor) Utilization() (float64, bool) {
	v, ok := g.load.value()
	return v / govUtilScale, ok
}

// Gated reports whether the governor is currently withholding
// redundancy.
func (g *Governor) Gated() bool { return g.gated.Load() }

// GovernorStats is a point-in-time view of a Governor.
type GovernorStats struct {
	// Utilization is the EWMA of observed utilization (in-flight copies
	// per replica on the group path); Observed is false before any
	// sample.
	Utilization float64
	Observed    bool
	// Threshold and Low bound the hysteresis band: redundancy gates off
	// at Threshold and back on at Low.
	Threshold, Low float64
	// InFlight is the number of copies currently in flight; Capacity the
	// replica count of the last sampled group.
	InFlight, Capacity int64
	// Gated reports whether redundancy is currently withheld; Flips
	// counts gate transitions (a flapping governor flips often).
	Gated bool
	Flips int64
	// Samples counts utilization observations.
	Samples int64
	// BackgroundAllowed and BackgroundDeferred count AllowBackground
	// outcomes: how often background work (migration, repair) was let
	// through versus told to yield to foreground load.
	BackgroundAllowed, BackgroundDeferred int64
}

// Stats returns a snapshot of the governor's state.
func (g *Governor) Stats() GovernorStats {
	util, ok := g.Utilization()
	return GovernorStats{
		Utilization:        util,
		Observed:           ok,
		Threshold:          g.threshold,
		Low:                g.low,
		InFlight:           g.inflight.Load(),
		Capacity:           g.capacity.Load(),
		Gated:              g.gated.Load(),
		Flips:              g.flips.Load(),
		Samples:            g.load.Count(),
		BackgroundAllowed:  g.bgAllowed.Load(),
		BackgroundDeferred: g.bgDeferred.Load(),
	}
}

// GovernorOf returns the Governor a strategy carries, or nil. A
// strategy is governed when it has a Governor() *Governor method that
// returns non-nil: GovernedStrategy, and the SLO controller and its
// class views (slo.Controller, slo.ClassStrategy). A group samples and
// gates through it on every call, the queueing model's included.
func GovernorOf(s Strategy) *Governor {
	if gs, ok := s.(interface{ Governor() *Governor }); ok {
		return gs.Governor()
	}
	return nil
}

// GovernedStrategy wraps an inner Strategy with a Governor: the inner
// strategy decides how to replicate, the governor decides whether the
// measured load affords it, degrading fan-out toward 1 as utilization
// crosses the threshold. Build one with LoadAware or LoadAwareWith, and
// install or swap it like any other Strategy (SetStrategy publishes it
// atomically through the group's copy-on-write snapshot; per-call
// WithStrategyOverride composes too). The wrapper is immutable after
// construction and safe for concurrent use.
type GovernedStrategy struct {
	inner Strategy
	gov   *Governor
}

// LoadAware wraps inner with a fresh Governor gating at threshold
// (in-flight copies per replica; non-positive means
// DefaultGovernorThreshold, with the default hysteresis).
func LoadAware(inner Strategy, threshold float64) *GovernedStrategy {
	return LoadAwareWith(inner, NewGovernor(threshold, 0))
}

// LoadAwareWith wraps inner with an existing Governor, so several groups
// can share one load measurement, or the caller can pick a custom
// hysteresis via NewGovernor.
func LoadAwareWith(inner Strategy, gov *Governor) *GovernedStrategy {
	if inner == nil {
		inner = Fixed{Copies: 2}
	}
	if gov == nil {
		gov = NewGovernor(0, 0)
	}
	return &GovernedStrategy{inner: inner, gov: gov}
}

// Governor returns the wrapper's governor, for stats and for external
// utilization feeds.
func (s *GovernedStrategy) Governor() *Governor { return s.gov }

// Inner returns the wrapped strategy.
func (s *GovernedStrategy) Inner() Strategy { return s.inner }

// Fanout implements Strategy by reporting the inner strategy's fan-out.
// The governor's clip is NOT applied here: a group applies Allow to the
// group-clamped fan-out at call time (so FullReplicate's "all replicas"
// sentinel degrades from the real group size, not from the sentinel).
func (s *GovernedStrategy) Fanout() (int, Selection) {
	return s.inner.Fanout()
}

// ScheduleInto implements Strategy by delegating to the inner strategy.
func (s *GovernedStrategy) ScheduleInto(d Digests, dst []time.Duration) []time.Duration {
	return strategyScheduleInto(s.inner, d, dst)
}

// String implements Strategy.
func (s *GovernedStrategy) String() string {
	return fmt.Sprintf("load-aware(%s, thr=%.3g)", s.inner.String(), s.gov.threshold)
}
