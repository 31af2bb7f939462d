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
// adaptive delay, and bound added load with a Budget. Per-call options
// then tune a single operation without touching the shared group:
//
//	g = redundancy.NewStrategyGroup[string](redundancy.Fixed{Copies: 2})
//	g.Add("a.example", queryA)
//	g.Add("b.example", queryB)
//	g.Add("c.example", queryC)
//	g.ProbeAll(ctx)                                        // measure every replica once
//
//	res, err = g.Do(ctx)                                   // the 2 fastest race
//	res, err = g.Do(ctx, redundancy.WithQuorum(2),         // 2-of-3 read...
//	    redundancy.WithLabel("checkout"))                  // ...tagged for metrics
//	res, err = g.Do(ctx,                                   // SLO-critical request:
//	    redundancy.WithStrategyOverride(redundancy.FullReplicate{}))
//	v, err := g.DoValue(ctx)                               // winner's value only,
//	                                                       // no option machinery
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
//	res, err = r.Do(ctx, "user:42")                        // primary+secondary race
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
	"redundancy/internal/repair"
	"redundancy/internal/ring"
	"redundancy/internal/slo"
)

// Replica is one way of performing an operation. See core.Replica.
type Replica[T any] = core.Replica[T]

// ArgReplica is a replica that receives a per-call argument. See
// core.ArgReplica.
type ArgReplica[K, T any] = core.ArgReplica[K, T]

// Result describes a completed redundant operation. See core.Result.
type Result[T any] = core.Result[T]

// BatchResult is one argument's outcome within a batch of independent
// calls (memkv.ShardedClient.GetBatch): the argument's Result on
// success, its error otherwise.
type BatchResult[T any] = core.BatchResult[T]

// Group manages a replica set for repeated redundant operations. It is
// built on a lock-free copy-on-write engine: replicas can be added and
// removed and the strategy changed while operations are in flight, and
// the Do hot path never takes a lock.
type Group[T any] = core.Group[T]

// KeyedGroup is a Group whose replicas receive a per-call argument of type
// K — the key of a replicated KV read, the question of a DNS lookup — so
// a single long-lived replica set serves every key without smuggling
// arguments through context values.
type KeyedGroup[K, T any] = core.KeyedGroup[K, T]

// GroupOption configures a Group.
type GroupOption[T any] = core.GroupOption[T]

// KeyedGroupOption configures a KeyedGroup.
type KeyedGroupOption[K, T any] = core.KeyedGroupOption[K, T]

// GroupStats is a consistent point-in-time view of a group's strategy,
// membership, and latency estimates.
type GroupStats = core.GroupStats

// ReplicaStats describes one replica in a GroupStats snapshot.
type ReplicaStats = core.ReplicaStats

// Strategy decides, per operation, how a Group replicates: fan-out,
// replica selection, and launch schedule. Built-in implementations are
// Fixed, AdaptiveHedge, and FullReplicate; custom implementations can
// consult the per-replica latency digests passed to ScheduleInto.
type Strategy = core.Strategy

// Fixed is the static strategy: fixed fan-out, optional fixed hedge
// delay.
type Fixed = core.Fixed

// AdaptiveHedge hedges when the elapsed time exceeds an observed
// latency quantile of the previous copy's replica, self-tuning as the
// per-replica digests fill.
type AdaptiveHedge = core.AdaptiveHedge

// FullReplicate launches every copy immediately (the paper's §2 full
// replication).
type FullReplicate = core.FullReplicate

// GovernedStrategy wraps an inner Strategy with a load-aware Governor:
// the inner strategy decides how to replicate, the governor decides
// whether the measured load affords it, degrading fan-out toward 1 as
// utilization crosses the paper's threshold. Build one with LoadAware.
type GovernedStrategy = core.GovernedStrategy

// Governor measures a replica set's offered load (EWMA of in-flight
// copies per replica) and gates redundancy with hysteresis once it
// crosses a threshold — the paper's "redundancy stops paying" regime.
type Governor = core.Governor

// GovernorStats is a point-in-time view of a Governor: utilization
// estimate, in-flight copies, gate state, and flip count.
type GovernorStats = core.GovernorStats

// DefaultGovernorThreshold is the default gate-on utilization, in
// in-flight copies per replica (2.0: by Little's law, the paper's
// exponential-service threshold of 1/3 base load).
const DefaultGovernorThreshold = core.DefaultGovernorThreshold

// Digests is the read-only view of selected replicas' latency digests a
// Strategy's ScheduleInto receives.
type Digests = core.Digests

// DigestList adapts a slice of digests to Digests, for testing custom
// strategies.
type DigestList = core.DigestList

// LatDigest is a lock-free per-replica latency digest: EWMA mean plus a
// log-scale histogram exposing quantiles.
type LatDigest = core.LatDigest

// Default AdaptiveHedge tuning.
const (
	DefaultHedgeQuantile   = core.DefaultHedgeQuantile
	DefaultHedgeMinSamples = core.DefaultHedgeMinSamples
)

// Selection chooses which replicas serve an operation.
type Selection = core.Selection

// Selection strategies.
const (
	SelectRanked     = core.SelectRanked
	SelectRandom     = core.SelectRandom
	SelectRoundRobin = core.SelectRoundRobin
)

// Budget caps the extra load redundancy may add.
type Budget = core.Budget

// Observation and Observer carry per-operation metrics.
type (
	Observation = core.Observation
	Observer    = core.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = core.ObserverFunc
	// Counters is a ready-made aggregating Observer.
	Counters = core.Counters
	// LabelStats is the per-traffic-class aggregate Counters.Labels
	// reports for calls tagged with WithLabel.
	LabelStats = core.LabelStats
)

// CallOption customizes a single Group.Do or KeyedGroup.Do operation —
// quorum, strategy override, fan-out cap, label, outcome collection —
// without touching the group's shared state.
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

// WithQuorum completes the call only after q replicas succeed (R-of-N
// reads); the fan-out is raised to at least q.
func WithQuorum(q int) CallOption { return core.WithQuorum(q) }

// WithStrategyOverride runs one call under s instead of the group's
// installed strategy, leaving the group and concurrent callers untouched.
func WithStrategyOverride(s Strategy) CallOption { return core.WithStrategyOverride(s) }

// WithFanoutCap caps the number of copies one call may launch; a quorum
// requirement takes precedence.
func WithFanoutCap(n int) CallOption { return core.WithFanoutCap(n) }

// WithLabel tags the call's Observation so Counters can aggregate
// metrics per traffic class.
func WithLabel(label string) CallOption { return core.WithLabel(label) }

// WithCollectOutcomes gathers the call's per-copy outcomes (success and
// failure alike, in completion order) into *dst.
func WithCollectOutcomes[T any](dst *[]Outcome[T]) CallOption {
	return core.WithCollectOutcomes(dst)
}

// NewStrategyGroup creates a Group with the given replication strategy
// (Fixed, AdaptiveHedge, FullReplicate, LoadAware, or your own).
func NewStrategyGroup[T any](s Strategy, opts ...GroupOption[T]) *Group[T] {
	return core.NewStrategyGroup[T](s, opts...)
}

// NewStrategyKeyedGroup creates a KeyedGroup with the given replication
// strategy.
func NewStrategyKeyedGroup[K, T any](s Strategy, opts ...KeyedGroupOption[K, T]) *KeyedGroup[K, T] {
	return core.NewStrategyKeyedGroup[K, T](s, opts...)
}

// WithBudget attaches a hedging budget to a Group.
func WithBudget[T any](b *Budget) GroupOption[T] { return core.WithBudget[T](b) }

// WithObserver attaches an Observer to a Group.
func WithObserver[T any](o Observer) GroupOption[T] { return core.WithObserver[T](o) }

// WithSeed fixes a Group's random-selection seed for reproducibility.
func WithSeed[T any](seed int64) GroupOption[T] { return core.WithSeed[T](seed) }

// WithKeyedBudget attaches a hedging budget to a KeyedGroup.
func WithKeyedBudget[K, T any](b *Budget) KeyedGroupOption[K, T] {
	return core.WithKeyedBudget[K, T](b)
}

// WithKeyedObserver attaches an Observer to a KeyedGroup.
func WithKeyedObserver[K, T any](o Observer) KeyedGroupOption[K, T] {
	return core.WithKeyedObserver[K, T](o)
}

// WithKeyedSeed fixes a KeyedGroup's random-selection seed for
// reproducibility.
func WithKeyedSeed[K, T any](seed int64) KeyedGroupOption[K, T] {
	return core.WithKeyedSeed[K, T](seed)
}

// NewBudget creates a Budget refilling at rate extra copies per second
// with the given burst capacity.
func NewBudget(rate, burst float64) *Budget { return core.NewBudget(rate, burst) }

// NewGovernor creates a Governor gating redundancy at threshold
// utilization (in-flight copies per replica; non-positive means
// DefaultGovernorThreshold) with the given hysteresis below it.
func NewGovernor(threshold, hysteresis float64) *Governor {
	return core.NewGovernor(threshold, hysteresis)
}

// LoadAware wraps inner with a fresh Governor gating at threshold: the
// resulting strategy replicates like inner while measured load affords
// it and degrades fan-out toward 1 past the threshold. Install it like
// any other strategy (NewStrategyGroup, SetStrategy).
func LoadAware(inner Strategy, threshold float64) *GovernedStrategy {
	return core.LoadAware(inner, threshold)
}

// LoadAwareWith wraps inner with an existing Governor, so several groups
// can share one load measurement.
func LoadAwareWith(inner Strategy, gov *Governor) *GovernedStrategy {
	return core.LoadAwareWith(inner, gov)
}

// NewCounters returns an empty Counters observer.
func NewCounters() *Counters { return core.NewCounters() }

// Outcome is one copy's result within a call, as WithCollectOutcomes
// gathers it and a QuorumError carries it.
type Outcome[T any] = core.Outcome[T]

// Handle is an opaque reference to one of a KeyedGroup's replicas, for
// callers that route among replicas themselves and call
// KeyedGroup.DoPicked over explicit subsets. Rings do this internally;
// most code never touches a Handle.
type Handle[K, T any] = core.Handle[K, T]

// Ring partitions a keyspace across named backends on a consistent-hash
// ring — the paper's §2.2 placement: each key lives on a primary plus
// Replication-1 successors — and routes every call through the same
// engine as Group.Do, over the key's placement subset. Strategies,
// per-call options, budgets, governors, cancellation, and per-member
// latency digests all compose; topology changes (Add/Remove) are atomic
// copy-on-write table swaps. See internal/ring for the full semantics.
type Ring[K, T any] = ring.Ring[K, T]

// RingOption configures a Ring at construction.
type RingOption = ring.Option

// RingStats is a point-in-time view of a Ring: strategy, replication,
// and per-member key share and latency statistics.
type RingStats = ring.Stats

// RingMemberStats describes one ring member in a RingStats snapshot.
type RingMemberStats = ring.MemberStats

// Ring construction defaults.
const (
	// DefaultRingReplication is the placement copies per key (primary +
	// one successor, as in the paper's storage service).
	DefaultRingReplication = ring.DefaultReplication
	// DefaultRingVirtualNodes is the ring points per member.
	DefaultRingVirtualNodes = ring.DefaultVirtualNodes
)

// NewRing creates a Ring whose call argument is the routing key itself
// (e.g. a KV key). strategy decides the redundancy within each key's
// placement — Fixed{Copies: 2} races primary + secondary.
func NewRing[K ~string, T any](strategy Strategy, opts ...RingOption) *Ring[K, T] {
	return ring.New[K, T](strategy, opts...)
}

// NewKeyedRing creates a Ring routing by keyOf(arg), for call arguments
// that carry more than the key (e.g. a write request routing by its key
// while carrying the value).
func NewKeyedRing[K, T any](strategy Strategy, keyOf func(K) string, opts ...RingOption) *Ring[K, T] {
	return ring.NewKeyed[K, T](strategy, keyOf, opts...)
}

// WithRingReplication sets a Ring's placement copies per key.
func WithRingReplication(r int) RingOption { return ring.WithReplication(r) }

// WithRingVirtualNodes sets a Ring's virtual points per member.
func WithRingVirtualNodes(v int) RingOption { return ring.WithVirtualNodes(v) }

// WithRingBudget attaches a hedging budget to a Ring's call engine.
func WithRingBudget(b *Budget) RingOption { return ring.WithBudget(b) }

// WithRingObserver attaches an Observer to a Ring's call engine.
func WithRingObserver(o Observer) RingOption { return ring.WithObserver(o) }

// RingPlacement is an immutable, non-generic snapshot of a Ring's
// routing decision — which members own which key under one frozen
// topology. Capture one before and one after a topology change and
// diff with SameOwners to enumerate the keys that must migrate.
type RingPlacement = ring.Placement

// ---- Convergence subsystem (internal/repair over the memkv data plane) ----
//
// The repair layer makes the redundancy the paper assumes — every
// replica in a key's placement actually holding the data — true again
// after failures and topology changes: write-time hinted handoff,
// asynchronous read repair, and a governed anti-entropy migrator. It
// operates on the sharded memkv store (the repo's live data plane) and
// is exercised end to end by the selfheal example and the ablrebalance
// experiment; the aliases below surface its configuration and stats.

// RepairManager is the convergence worker: it implements the sharded
// store's repair sink, queueing missed writes as bounded hints replayed
// with backoff, pushing newest values to stale replicas after divergent
// quorum reads, and migrating remapped keys after topology changes.
type RepairManager = repair.Manager

// RepairConfig configures a RepairManager (hint-queue bounds, batch and
// scan page sizes, replay backoff, governor gating, auto-rebalance).
type RepairConfig = repair.Config

// RepairStats is a point-in-time view of a RepairManager's counters.
type RepairStats = repair.Stats

// RebalanceStats summarizes one anti-entropy migration pass.
type RebalanceStats = repair.RebalanceStats

// RepairHintKeyPrefix marks durable hint records in shard keyspaces;
// user keys must not start with it.
const RepairHintKeyPrefix = repair.HintKeyPrefix

// ---- SLO control loop (internal/slo) ----
//
// Every strategy above trades added load for tail latency with values
// picked by hand. The SLO controller picks them instead: it watches
// per-class windowed latency digests and hill-climbs fan-out, hedge
// quantile, and read quorum toward the cheapest operating point whose
// p99 meets a declared target within an extra-load budget. It is itself
// a Strategy, so it drops in anywhere one goes.

// SLOController adapts per-class operating points toward their targets.
// Plug it in as a Strategy (it speaks for its default class) and call
// Start for the periodic control loop; per-class views from Class
// attach to individual calls via WithStrategyOverride + WithLabel.
type SLOController = slo.Controller

// SLOTarget declares what a traffic class is owed: a windowed p99 bound
// and the extra-load budget (copies/op beyond the first) the controller
// may spend meeting it.
type SLOTarget = slo.Target

// SLOConfig configures an SLOController (counters to observe, governor,
// control interval, fan-out/quorum bounds, validation).
type SLOConfig = slo.Config

// SLOClassConfig is one operating point: fan-out, hedge quantile, and
// read quorum for a traffic class.
type SLOClassConfig = slo.ClassConfig

// SLOClassStats reports a class's target, current operating point, last
// observed window, and decision counters.
type SLOClassStats = slo.ClassStats

// SLOWindow is one control interval's observed statistics, the input to
// the controller's pure decision step.
type SLOWindow = slo.Window

// SLODefaultClass is the traffic class unlabeled calls ride.
const SLODefaultClass = slo.DefaultClass

// NewSLOController returns a controller steering every class toward
// target (classes appear on first use and can be retargeted with
// SetTarget).
func NewSLOController(target SLOTarget, cfg SLOConfig) *SLOController {
	return slo.New(target, cfg)
}
