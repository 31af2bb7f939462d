package slo

import (
	"math"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/queueing"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// validationQuantiles is the CDF skeleton fitted from the window when
// pre-flighting a tighten. The top is deliberately dense: the sim
// exists to predict tail behavior.
var validationQuantiles = []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}

// The pre-flight's model: enough servers for the top rung's copies to
// land on distinct ones, enough requests for a stable p99, and one fixed
// seed, so a window always gets the same verdict.
const (
	preflightServers  = 8
	preflightRequests = 3000
	preflightSeed     = 1
)

// validateTighten pre-flights a candidate rung in the queueing model
// before letting it go live: it fits an empirical service distribution
// from the window's quantiles, estimates the offered load from the
// window's utilization, and runs the rung's strategy — the one
// ClassStrategy runs once the move is published — against one copy per
// request under the same arrival seed. The tighten is accepted only if
// the candidate's simulated p99 is no worse than the baseline's — i.e.
// redundancy still helps at this load level. Whenever the inputs are
// insufficient to simulate (no load signal, degenerate distribution),
// the move is accepted: the governor clamp and the over-budget guard
// remain as runtime backstops, and refusing to ever tighten would wedge
// the controller at rung 0.
func (c *Controller) validateTighten(w Window, cand rung) bool {
	if c.cfg.DisableValidation || cand.fanout < 2 {
		return true
	}
	base, next, ok := c.preflight(w, cand)
	if !ok {
		return true
	}
	baseRes, err := queueing.RunHedged(base)
	if err != nil {
		return true
	}
	candRes, err := queueing.RunHedged(next)
	if err != nil {
		return true
	}
	// The finite-sample p99 ratio carries a few percent of noise even
	// under paired seeds, and a shallow hedge (q=0.99 fires on 1% of
	// requests) moves the needle less than that noise. Only a clearly
	// predicted regression vetoes; in the model, harmful rungs overshoot
	// this margin by an order of magnitude (2-6x) while harmless ones
	// stay within it.
	return candRes.Sample.P99() <= baseRes.Sample.P99()*1.10
}

// preflight builds the two model runs validateTighten compares: one
// copy per request, and the candidate rung's ClassConfig.Strategy. ok is
// false when the window cannot be simulated.
func (c *Controller) preflight(w Window, cand rung) (base, next queueing.HedgedConfig, ok bool) {
	load := offeredLoad(w)
	if load <= 0 {
		return base, next, false
	}
	svc, ok := serviceDistFromWindow(w)
	if !ok {
		return base, next, false
	}
	base = queueing.HedgedConfig{
		Servers: preflightServers, Load: load, Service: svc,
		Strategy: core.Fixed{Copies: 1}, Requests: preflightRequests, Seed: preflightSeed,
	}
	next = base
	next.Strategy = ClassConfig{Fanout: cand.fanout, Quantile: cand.q}.Strategy()
	return base, next, true
}

// offeredLoad estimates per-server offered load in (0, 1) from the
// window's utilization, the governor's EWMA of in-flight copies per
// replica — the mean number in system L of a single-server queue — so
// Little's law inverts it: rho = L / (1 + L). The estimate is clamped to
// [0.05, 0.90], the range where the queueing model is both stable and
// informative; it is 0 when the window has no utilization.
func offeredLoad(w Window) float64 {
	if w.Utilization <= 0 {
		return 0
	}
	load := w.Utilization / (1 + w.Utilization)
	return math.Min(0.90, math.Max(0.05, load))
}

// serviceDistFromWindow fits a unit-scale empirical distribution to the
// window's latency quantiles, normalized by the window mean so the
// model's one-service-time-unit convention holds. ok is false when the
// window cannot produce at least two distinct support points (the
// digest's log-scale bins collapse nearby quantiles) — too degenerate
// to simulate.
func serviceDistFromWindow(w Window) (dist.Dist, bool) {
	if w.QuantileFn == nil || w.Mean <= 0 {
		return nil, false
	}
	mean := float64(w.Mean)
	values := make([]float64, 0, len(validationQuantiles))
	cdf := make([]float64, 0, len(validationQuantiles))
	for _, p := range validationQuantiles {
		d, ok := w.QuantileFn(p)
		if !ok || d <= 0 {
			continue
		}
		v := float64(d) / mean
		if n := len(values); n > 0 && v <= values[n-1] {
			// Same histogram bin as the previous point: fold the mass
			// forward by raising that point's cumulative probability.
			cdf[n-1] = p
			continue
		}
		values = append(values, v)
		cdf = append(cdf, p)
	}
	if len(values) < 2 {
		return nil, false
	}
	cdf[len(cdf)-1] = 1
	e := dist.NewEmpirical(values, cdf, true)
	return e, true
}
