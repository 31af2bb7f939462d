package core

import (
	"fmt"
	"math"
	"time"
)

// Strategy decides, per operation, how a Group replicates: how many
// copies to launch, which replicas serve them, and the launch schedule.
// The three built-in implementations are Fixed (static fan-out and hedge
// delay), AdaptiveHedge (hedge when the elapsed time exceeds an observed
// latency quantile, self-tuning as the per-replica digests fill), and
// FullReplicate (every copy immediately).
//
// A Strategy is installed per Group and swapped atomically through the
// group's copy-on-write snapshot (SetStrategy), so every operation sees
// one consistent (strategy, membership) pair. Implementations must be
// immutable after installation and safe for concurrent use: Fanout and
// ScheduleInto are called on the lock-free Do hot path.
type Strategy interface {
	// Fanout returns the maximum number of copies per operation (values
	// below 1 are treated as 1; values above the group size are clamped)
	// and the selection method that picks them.
	Fanout() (copies int, sel Selection)

	// ScheduleInto computes the launch schedule for one operation over
	// the selected replicas, whose latency digests d exposes in launch
	// order, into dst — the caller's scratch (the call frame's inline
	// array), of length d.Len(). It returns nil to launch every copy
	// immediately, or dst filled with per-copy delays, where dst[i] is the
	// wait after copy i-1's launch before copy i launches (dst[0] is
	// ignored; the first copy always starts immediately).
	//
	// The caller owns dst and will mutate it (quorum zeroing), so an
	// implementation must not retain it. One that returns its own memory
	// instead is tolerated: the engine copies a foreign return into dst,
	// padding a short one with its last entry and truncating a long one,
	// and an EMPTY non-nil return means exactly what nil does — an
	// implementation cannot serialize its copies by accident with a
	// zero-length slice, because the engine never indexes a schedule
	// shorter than the fan-out.
	ScheduleInto(d Digests, dst []time.Duration) []time.Duration

	// String describes the strategy; GroupStats carries it so Stats()
	// output is self-describing.
	String() string
}

// strategyScheduleInto resolves a strategy's schedule into buf (length
// = d.Len()). The result is always buf-backed (or nil), so callers may
// mutate it freely.
func strategyScheduleInto(s Strategy, d Digests, buf []time.Duration) []time.Duration {
	out := s.ScheduleInto(d, buf)
	if len(out) == 0 {
		return nil
	}
	if len(out) == len(buf) && &out[0] == &buf[0] {
		return out
	}
	// The implementation returned its own memory; bring the schedule
	// into the caller-owned buffer.
	return normalizeInto(out, buf)
}

// normalizeInto copies a schedule into buf, truncating or padding with
// the last entry so the result has exactly len(buf) entries. An empty
// (nil or zero-length) schedule normalizes to nil: launch all copies
// immediately, never a bogus all-zero "schedule".
func normalizeInto(delays []time.Duration, buf []time.Duration) []time.Duration {
	if len(delays) == 0 {
		return nil
	}
	m := copy(buf, delays)
	last := delays[len(delays)-1]
	for i := m; i < len(buf); i++ {
		buf[i] = last
	}
	return buf
}

// Digests is a read-only view over the selected replicas' latency
// digests, in launch order, passed to Strategy.ScheduleInto.
type Digests interface {
	Len() int
	At(i int) *LatDigest
}

// DigestList is a ready-made Digests over a slice, for testing custom
// strategies and for callers driving ScheduleInto directly.
type DigestList []*LatDigest

// Len implements Digests.
func (d DigestList) Len() int { return len(d) }

// At implements Digests.
func (d DigestList) At(i int) *LatDigest { return d[i] }

// Fixed is the static strategy: a fixed number of copies, an optional
// fixed hedge delay, and a selection method.
type Fixed struct {
	// Copies is the number of replicas per operation (k). Values below 1
	// are treated as 1. If the group has fewer replicas, every replica is
	// used.
	Copies int
	// HedgeDelay, when non-zero, staggers copies: copy i+1 launches only
	// if no response arrived HedgeDelay after copy i. Zero launches all
	// copies immediately (full replication, as in §2 of the paper).
	HedgeDelay time.Duration
	// Selection chooses which k of the group's replicas serve an
	// operation. The default is SelectRanked.
	Selection Selection
}

// Fanout implements Strategy.
func (f Fixed) Fanout() (int, Selection) {
	k := f.Copies
	if k < 1 {
		k = 1
	}
	return k, f.Selection
}

// ScheduleInto implements Strategy.
func (f Fixed) ScheduleInto(d Digests, dst []time.Duration) []time.Duration {
	if f.HedgeDelay <= 0 {
		return nil
	}
	for i := range dst {
		dst[i] = f.HedgeDelay
	}
	return dst
}

// String implements Strategy.
func (f Fixed) String() string {
	k, _ := f.Fanout()
	if f.HedgeDelay > 0 {
		return fmt.Sprintf("fixed(k=%d, hedge %v, %s)", k, f.HedgeDelay, f.Selection)
	}
	return fmt.Sprintf("fixed(k=%d, %s)", k, f.Selection)
}

// FullReplicate launches every copy immediately — the paper's §2 full
// replication, most effective below the threshold load.
type FullReplicate struct {
	// Copies is the number of replicas per operation; values below 1
	// mean "every replica in the group".
	Copies int
	// Selection chooses which replicas serve an operation.
	Selection Selection
}

// Fanout implements Strategy.
func (f FullReplicate) Fanout() (int, Selection) {
	k := f.Copies
	if k < 1 {
		k = math.MaxInt32 // clamped to the group size by Do
	}
	return k, f.Selection
}

// ScheduleInto implements Strategy. The nil return is the "launch every
// copy immediately" contract, not an omission.
func (FullReplicate) ScheduleInto(Digests, []time.Duration) []time.Duration { return nil }

// String implements Strategy.
func (f FullReplicate) String() string {
	if f.Copies < 1 {
		return fmt.Sprintf("full-replicate(all, %s)", f.Selection)
	}
	return fmt.Sprintf("full-replicate(k=%d, %s)", f.Copies, f.Selection)
}

// Default tuning for AdaptiveHedge.
const (
	// DefaultHedgeQuantile is the latency quantile at which AdaptiveHedge
	// launches the next copy when none is configured.
	DefaultHedgeQuantile = 0.95
	// DefaultHedgeMinSamples is how many observations a replica's digest
	// needs before AdaptiveHedge trusts its quantile.
	DefaultHedgeMinSamples = 16
)

// AdaptiveHedge hedges at an observed latency quantile: copy i+1
// launches when the elapsed time since copy i's launch exceeds the p-th
// percentile of copy i's replica's latency digest. The delay self-tunes
// as the digest fills and tracks drift in the replica's latency
// distribution — the production form of the paper's §3.2 DNS strategy,
// where the hedging point depends on the distribution's tail, not a
// caller-guessed constant.
//
// By construction the extra-copy rate converges to roughly (1 - p) of
// operations, so p doubles as a load knob: p = 0.95 adds about 5% load.
//
// While a consulted digest has fewer than MinSamples observations the
// strategy falls back to FallbackDelay; the zero default launches the
// next copy immediately (full replication while cold), which both bounds
// cold-start latency and warms the digests fastest. Note digests record
// only successful, non-cancelled calls, so a group that is never probed
// learns only from winners; use ProbeAll to warm all replicas.
type AdaptiveHedge struct {
	// Copies is the maximum number of copies per operation (default 2).
	Copies int
	// Quantile is p, the latency quantile that triggers the next copy
	// (default DefaultHedgeQuantile).
	Quantile float64
	// MinSamples is the observation count below which a digest's
	// quantile is not trusted (default DefaultHedgeMinSamples).
	MinSamples int64
	// FallbackDelay is the hedge delay used while a digest is cold; zero
	// launches the next copy immediately.
	FallbackDelay time.Duration
	// Selection chooses which replicas serve an operation.
	Selection Selection
}

func (a AdaptiveHedge) quantile() float64 {
	if a.Quantile <= 0 || a.Quantile >= 1 {
		return DefaultHedgeQuantile
	}
	return a.Quantile
}

func (a AdaptiveHedge) minSamples() int64 {
	if a.MinSamples <= 0 {
		return DefaultHedgeMinSamples
	}
	return a.MinSamples
}

// Fanout implements Strategy.
func (a AdaptiveHedge) Fanout() (int, Selection) {
	k := a.Copies
	if k < 1 {
		k = 2
	}
	return k, a.Selection
}

// ScheduleInto implements Strategy.
func (a AdaptiveHedge) ScheduleInto(d Digests, dst []time.Duration) []time.Duration {
	k := d.Len()
	if k <= 1 {
		return nil
	}
	p := a.quantile()
	min := a.minSamples()
	dst[0] = 0
	for i := 1; i < k; i++ {
		dst[i] = a.FallbackDelay
		if dg := d.At(i - 1); dg != nil && dg.Count() >= min {
			if q, ok := dg.Quantile(p); ok {
				dst[i] = q
			}
		}
	}
	return dst
}

// String implements Strategy.
func (a AdaptiveHedge) String() string {
	k, _ := a.Fanout()
	return fmt.Sprintf("adaptive-hedge(k=%d, p%g, %s)", k, a.quantile()*100, a.Selection)
}
