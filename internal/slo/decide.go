// Package slo closes the loop on the paper's trade-off curve. The two
// knobs a redundant read has — fan-out and hedge quantile — trade added
// load for tail latency, and so far each call site picks values by hand.
// The Controller here picks them instead: it watches per-class latency
// digests and the Governor's utilization EWMA, and hill-climbs a ladder
// of operating points, with hysteresis,
// toward the cheapest configuration whose windowed p99 meets a declared
// Target. Tighten moves can additionally be validated in the queueing
// model, which runs the candidate rung's own core.Strategy against one
// copy per request, before going live, so the controller never commits
// to redundancy that the current load level would turn into queueing
// harm — the paper's threshold result, applied at runtime.
package slo

import (
	"time"
)

// Target declares what a traffic class is owed and what it may spend.
type Target struct {
	// P99 is the tail-latency objective: the controller tightens while
	// the class's windowed 99th percentile exceeds it.
	P99 time.Duration
	// MaxExtraLoad caps the redundancy spend, in extra copies per
	// operation (0.3 means at most 30% added load). The controller never
	// climbs to a rung whose expected extra load exceeds it, and backs
	// off if the measured spend overshoots. Non-positive means uncapped.
	MaxExtraLoad float64
}

// rung is one operating point on the redundancy ladder: a fan-out and
// the hedge quantile at which the extra copies launch. The ladder is
// ordered by expected extra load, so "one rung up" is always the
// cheapest possible tightening step.
type rung struct {
	fanout int
	q      float64 // hedge quantile; 1 when fanout == 1 (never hedges)
}

// ladderQuantiles is the quantile sweep within one fan-out level,
// tightest (cheapest) first. The range is [p50, p99] by construction:
// hedging below the median would spend more than a whole extra copy's
// worth of hedges on requests that were already fast.
var ladderQuantiles = []float64{0.99, 0.97, 0.95, 0.92, 0.90, 0.85, 0.80, 0.75, 0.70, 0.65, 0.60, 0.55, 0.50}

// buildLadder enumerates the operating points up to maxFanout. Rung 0
// is no redundancy. Fan-out 2 sweeps the hedge quantile from p99 down
// to p50; higher fan-outs are appended at p50 only, so expected extra
// load stays strictly increasing along the ladder.
func buildLadder(maxFanout int) []rung {
	lad := []rung{{fanout: 1, q: 1}}
	if maxFanout >= 2 {
		for _, q := range ladderQuantiles {
			lad = append(lad, rung{fanout: 2, q: q})
		}
	}
	for f := 3; f <= maxFanout; f++ {
		lad = append(lad, rung{fanout: f, q: 0.50})
	}
	return lad
}

// expectedExtra is the a-priori added load of a rung, in extra copies
// per operation: copy i+1 launches only when the operation is still
// outstanding at the quantile-q hedge delay, which happens with
// probability (1-q) per level, so the expectation is Σ_{i=1..f-1}(1-q)^i.
func expectedExtra(r rung) float64 {
	extra, pLevel := 0.0, 1.0
	for i := 1; i < r.fanout; i++ {
		pLevel *= 1 - r.q
		extra += pLevel
	}
	return extra
}

// affordable reports whether a rung's expected extra load fits within
// the target's budget.
func affordable(r rung, tgt Target) bool {
	return tgt.MaxExtraLoad <= 0 || expectedExtra(r) <= tgt.MaxExtraLoad+1e-9
}

// Window is one control interval's measurements for a class — the
// controller's entire view of the world when it decides a move. Tick
// fills it from Counters snapshots and the Governor; simulations and
// tests construct it directly and feed it to Step.
type Window struct {
	// P99 is the windowed 99th-percentile latency; zero when the window
	// recorded nothing.
	P99 time.Duration
	// Mean is the windowed mean latency, used to scale the validation
	// model; zero disables validation for the window.
	Mean time.Duration
	// Samples counts the window's successful operations. Below the
	// controller's MinWindowSamples the window is too noisy to act on.
	Samples int64
	// ExtraLoad is the measured redundancy spend in the window, in extra
	// copies per operation ((launched - ops) / ops).
	ExtraLoad float64
	// Utilization is the Governor's EWMA of in-flight copies per
	// replica; negative when no governor (or no sample) is available.
	Utilization float64
	// Gated reports the governor gated, by its own hysteresis (on at its
	// threshold, off below its low mark): redundancy is being withheld
	// and the controller must clamp, not fight.
	Gated bool
	// QuantileFn, when set, serves arbitrary windowed quantiles so
	// validation can fit an empirical service distribution. Optional.
	QuantileFn func(p float64) (time.Duration, bool)
}

// Move classifies what one control round did to a class's operating
// point.
type Move int

const (
	// MoveHold kept the operating point.
	MoveHold Move = iota
	// MoveTighten spent more (climbed a rung) to chase a missed p99.
	MoveTighten
	// MoveRelax spent less (descended a rung) under sustained headroom or
	// a blown budget.
	MoveRelax
	// MoveClamp dropped straight to no redundancy because the governor
	// is at its gate.
	MoveClamp
)

func (m Move) String() string {
	switch m {
	case MoveHold:
		return "hold"
	case MoveTighten:
		return "tighten"
	case MoveRelax:
		return "relax"
	case MoveClamp:
		return "clamp"
	}
	return "unknown"
}

// Reason explains a Move (or the decision to hold).
type Reason int

const (
	// ReasonDeadband: the windowed p99 sits inside the hysteresis band
	// [relaxFraction·P99, P99] — exactly where a converged controller
	// should rest, so nothing moves.
	ReasonDeadband Reason = iota
	// ReasonCold: too few window samples to trust any measurement.
	ReasonCold
	// ReasonGated: the governor is gated; redundancy would be withheld
	// anyway, so the controller clamps to the cheapest point.
	ReasonGated
	// ReasonOverBudget: measured extra load overshot MaxExtraLoad.
	ReasonOverBudget
	// ReasonMiss: windowed p99 above target.
	ReasonMiss
	// ReasonHeadroom: windowed p99 comfortably below target.
	ReasonHeadroom
	// ReasonExhausted: the p99 is missed but every tighter rung exceeds
	// the extra-load budget — the target is unreachable at this spend.
	ReasonExhausted
	// ReasonRejected: the queueing-model pre-flight predicted the
	// tighter rung would hurt the tail at the current load, so the
	// tighten was vetoed.
	ReasonRejected
	// ReasonPatience: headroom was seen but the relax streak has not
	// yet met relaxPatience; holding to avoid oscillation.
	ReasonPatience
)

func (r Reason) String() string {
	switch r {
	case ReasonDeadband:
		return "deadband"
	case ReasonCold:
		return "cold"
	case ReasonGated:
		return "gated"
	case ReasonOverBudget:
		return "over-budget"
	case ReasonMiss:
		return "miss"
	case ReasonHeadroom:
		return "headroom"
	case ReasonExhausted:
		return "exhausted"
	case ReasonRejected:
		return "rejected"
	case ReasonPatience:
		return "patience"
	}
	return "unknown"
}

// The hysteresis knobs. A relax needs the windowed p99 below
// relaxFraction·Target.P99 (the bottom of the deadband) for relaxPatience
// consecutive windows; tightens act immediately — missing the SLO hurts
// now, saving money can wait.
const (
	relaxFraction = 0.7
	relaxPatience = 3
)

// overSpendSlack is how far the measured extra load may overshoot
// MaxExtraLoad before the controller relaxes: the measurement is a
// windowed ratio with real variance, and backing off on every wiggle
// would oscillate.
const overSpendSlack = 1.1

// decide is the pure decision core: one window of measurements in, the
// next rung and why out. It performs no I/O, no validation, and no
// patience accounting — Step layers those on — so tables of (window,
// rung, target) fixtures can pin down every branch. minSamples is the
// window size below which it holds.
//
// The rules, in priority order:
//
//  1. Governor gated → clamp to rung 0. Redundancy is being withheld
//     anyway; holding a tight rung would only mis-report what the system
//     is actually doing.
//  2. Too few samples → hold. Noise is not a signal.
//  3. Measured spend above budget (with slack) → relax a rung
//     immediately. The budget is a declared cap, not advice.
//  4. p99 above target → tighten: climb one rung, but never onto a rung
//     whose expected extra load exceeds the budget.
//  5. p99 below relaxFraction·target → relax: descend a rung.
//  6. Otherwise → hold; the rung is inside the hysteresis band.
func decide(w Window, r int, tgt Target, lad []rung, minSamples int64) (int, Move, Reason) {
	if w.Gated {
		if r != 0 {
			return 0, MoveClamp, ReasonGated
		}
		return r, MoveHold, ReasonGated
	}
	if w.Samples < minSamples || w.P99 <= 0 {
		return r, MoveHold, ReasonCold
	}
	if tgt.MaxExtraLoad > 0 && r > 0 {
		if w.ExtraLoad > tgt.MaxExtraLoad*overSpendSlack || !affordable(lad[r], tgt) {
			// Measured spend overshot the cap, or the cap itself moved
			// below the current rung's expected spend (a target change):
			// either way the configuration violates the declared budget
			// and descends regardless of what the p99 says.
			return r - 1, MoveRelax, ReasonOverBudget
		}
	}
	switch {
	case w.P99 > tgt.P99:
		// The ladder's expected extra load is increasing, so if the very
		// next rung is unaffordable every later one is too.
		if r+1 < len(lad) && affordable(lad[r+1], tgt) {
			return r + 1, MoveTighten, ReasonMiss
		}
		return r, MoveHold, ReasonExhausted
	case w.P99 < time.Duration(relaxFraction*float64(tgt.P99)):
		if r > 0 {
			return r - 1, MoveRelax, ReasonHeadroom
		}
		return r, MoveHold, ReasonHeadroom
	}
	return r, MoveHold, ReasonDeadband
}
