// Package redundancy reduces the latency — especially the tail latency —
// of networked operations by initiating them redundantly across diverse
// resources and using the first result that completes.
//
// It is a from-scratch Go implementation of the system described in
// "Low Latency via Redundancy" (Vulimiri, Godfrey, Mittal, Sherry,
// Ratnasamy, Shenker — CoNEXT 2013), together with every substrate the
// paper's evaluation depends on (see DESIGN.md) and a harness that
// regenerates each of the paper's figures (see EXPERIMENTS.md and
// cmd/redbench).
//
// # Quick start
//
// A redundant call is a Group call: register the replicas once, choose a
// Strategy, and Do. FullReplicate races every replica and keeps the first
// answer:
//
//	ctx := context.Background()
//	g := redundancy.NewStrategyGroup[string](redundancy.FullReplicate{})
//	g.Add("a.example", queryA) // queryA(ctx context.Context) (string, error)
//	g.Add("b.example", queryB)
//	res, err := g.Do(ctx)
//	// res.Value is the fastest server's answer; the slower query was cancelled.
//
// The group tracks per-replica latency, so the same set can replicate to
// the k fastest (the paper's DNS strategy), hedge after a fixed or
// adaptive delay, and stop replicating when load makes copies cost more
// than they save (LoadAware). Per-call options then tune a single
// operation without touching the shared group:
//
//	g = redundancy.NewStrategyGroup[string](redundancy.Fixed{Copies: 2})
//	g.Add("a.example", queryA)
//	g.Add("b.example", queryB)
//	g.Add("c.example", queryC)
//	g.ProbeAll(ctx) // measure every replica once
//
//	res, err = g.Do(ctx)                              // the 2 fastest race
//	res, err = g.Do(ctx, redundancy.WithQuorum(2))    // 2-of-3 read
//	res, err = g.Do(ctx, redundancy.WithFanoutCap(1)) // one copy, this call only
//	v, err := g.DoValue(ctx)                          // winner's value only
//
// When the dataset no longer fits on every replica, Ring shards it:
// keys are partitioned across backends by consistent hashing (the
// paper's §2.2 storage placement) and each call runs the same engine —
// same strategies, same options — over its key's primary + successors:
//
//	r := redundancy.NewRing[string, string](redundancy.Fixed{Copies: 2})
//	r.Add("shard-a", getA) // getA(ctx context.Context, key string) (string, error)
//	r.Add("shard-b", getB)
//	r.Add("shard-c", getC)
//
//	res, err = r.Do(ctx, "user:42")                           // primary+secondary race
//	res, err = r.Do(ctx, "user:42", redundancy.WithQuorum(2)) // 2-of-2 placement read
//
// Failures are typed: errors.As recovers each ReplicaError (which replica,
// which attempt), and a failed quorum matches
// errors.Is(err, redundancy.ErrQuorumUnreachable) with partial outcomes in
// the QuorumError.
//
// # When does this help?
//
// The paper's analysis (reproduced in internal/queueing and
// internal/analytic) shows that with negligible client-side cost,
// duplicating every operation lowers mean latency whenever server
// utilization is below a threshold that lies between ~26% (deterministic
// service times) and 50% (heavy-tailed service times); with exponential
// service times the threshold is exactly 1/3. Redundancy helps most in the
// tail and under the most variable conditions. It stops helping when the
// client-side cost of an extra copy is comparable to the mean service time
// (e.g. very large transfers, or sub-millisecond in-memory reads).
package redundancy

import (
	"redundancy/internal/core"
	"redundancy/internal/ring"
)

// Replica is one way of performing an operation. See core.Replica.
type Replica[T any] = core.Replica[T]

// Result describes a completed redundant operation. See core.Result.
type Result[T any] = core.Result[T]

// Outcome is one copy's result within a call, as WithCollectOutcomes
// gathers it and a QuorumError carries it.
type Outcome[T any] = core.Outcome[T]

// Group manages a replica set for repeated redundant operations. It is
// built on a lock-free copy-on-write engine: replicas can be added and
// removed and the strategy changed while operations are in flight, and
// the Do hot path never takes a lock.
type Group[T any] = core.Group[T]

// GroupOption configures a Group at construction.
type GroupOption = core.GroupOption

// Strategy decides, per operation, how a Group replicates: fan-out,
// replica selection, and launch schedule. Built-in implementations are
// Fixed, AdaptiveHedge, FullReplicate, and LoadAware's GovernedStrategy.
type Strategy = core.Strategy

// Fixed is the static strategy: fixed fan-out, optional fixed hedge
// delay.
type Fixed = core.Fixed

// FullReplicate launches every copy immediately (the paper's §2 full
// replication).
type FullReplicate = core.FullReplicate

// AdaptiveHedge hedges when the elapsed time exceeds an observed
// latency quantile of the previous copy's replica, self-tuning as the
// per-replica digests fill.
type AdaptiveHedge = core.AdaptiveHedge

// GovernedStrategy wraps an inner Strategy with a load-aware governor:
// the inner strategy decides how to replicate, the governor decides
// whether the measured load affords it, degrading fan-out toward 1 as
// utilization crosses the paper's threshold. Build one with LoadAware.
type GovernedStrategy = core.GovernedStrategy

// Selection chooses which replicas serve an operation.
type Selection = core.Selection

// Selection strategies.
const (
	SelectRanked     = core.SelectRanked
	SelectRandom     = core.SelectRandom
	SelectRoundRobin = core.SelectRoundRobin
)

// DefaultGovernorThreshold is the default gate-on utilization, in
// in-flight copies per replica (2.0: by Little's law, the paper's
// exponential-service threshold of 1/3 base load).
const DefaultGovernorThreshold = core.DefaultGovernorThreshold

// Observer receives one observation per completed operation.
type Observer = core.Observer

// Counters is a ready-made aggregating Observer.
type Counters = core.Counters

// CallOption customizes a single Group.Do or Ring.Do operation — quorum,
// fan-out cap, outcome collection — without touching the group's shared
// state.
type CallOption = core.CallOption

// ReplicaError describes one replica's failure within a redundant
// operation; failed operations join them with errors.Join.
type ReplicaError = core.ReplicaError

// QuorumError is the failure of a quorum call, carrying the partial
// outcomes. errors.Is(err, ErrQuorumUnreachable) matches it.
type QuorumError[T any] = core.QuorumError[T]

// ErrNoReplicas is returned when an operation is attempted with zero
// replicas.
var ErrNoReplicas = core.ErrNoReplicas

// ErrQuorumUnreachable reports that a call's quorum cannot be met: too
// many replicas failed, or the quorum exceeds the replica set.
var ErrQuorumUnreachable = core.ErrQuorumUnreachable

// NewStrategyGroup creates a Group with the given replication strategy
// (Fixed, AdaptiveHedge, FullReplicate, LoadAware, or your own).
func NewStrategyGroup[T any](s Strategy, opts ...GroupOption) *Group[T] {
	return core.NewStrategyGroup[T](s, opts...)
}

// WithObserver attaches an Observer to a Group.
func WithObserver(o Observer) GroupOption { return core.WithObserver(o) }

// WithSeed fixes a Group's random-selection seed for reproducibility.
func WithSeed(seed int64) GroupOption { return core.WithSeed(seed) }

// NewCounters returns an empty Counters observer.
func NewCounters() *Counters { return core.NewCounters() }

// LoadAware wraps inner with a fresh governor gating at threshold: the
// resulting strategy replicates like inner while measured load affords
// it and degrades fan-out toward 1 past the threshold. Install it like
// any other strategy (NewStrategyGroup, SetStrategy).
func LoadAware(inner Strategy, threshold float64) *GovernedStrategy {
	return core.LoadAware(inner, threshold)
}

// WithQuorum completes the call only after q replicas succeed (R-of-N
// reads); the fan-out is raised to at least q.
func WithQuorum(q int) CallOption { return core.WithQuorum(q) }

// WithCollectOutcomes gathers the call's per-copy outcomes (success and
// failure alike, in completion order) into *dst.
func WithCollectOutcomes[T any](dst *[]Outcome[T]) CallOption {
	return core.WithCollectOutcomes(dst)
}

// WithFanoutCap caps the number of copies one call may launch; a quorum
// requirement takes precedence.
func WithFanoutCap(n int) CallOption { return core.WithFanoutCap(n) }

// Ring partitions a keyspace across named backends on a consistent-hash
// ring — the paper's §2.2 placement: each key lives on a primary plus a
// successor — and routes every call by its key through the same engine
// as Group.Do, over the key's placement subset. Strategies and per-call
// options compose; topology changes (Add/Remove) are atomic
// copy-on-write table swaps. See internal/ring for the full semantics.
type Ring[K ~string, T any] = ring.Ring[K, T]

// NewRing creates a Ring whose call argument is the routing key itself
// (e.g. a KV key). strategy decides the redundancy within each key's
// placement — Fixed{Copies: 2} races primary + secondary.
func NewRing[K ~string, T any](strategy Strategy) *Ring[K, T] {
	return ring.New[K, T](strategy)
}
