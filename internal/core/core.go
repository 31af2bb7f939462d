// Package core implements the paper's primary contribution as a reusable
// client library: initiate an operation on several diverse replicas
// concurrently (or after a hedging delay) and use the first result that
// completes, cancelling the rest.
//
// The module root, package redundancy, re-exports the part of this
// package that applications need (Group, the strategies, the options);
// application code should import "redundancy" rather than this package.
//
// Design notes:
//
//   - A redundant call is a Group call: register the replicas once, pick
//     a Strategy (FullReplicate races them all, Fixed hedges after a
//     delay, AdaptiveHedge at an observed quantile), and Do. Group.Do
//     with its per-call options and the routed-subset
//     KeyedGroup.DoPicked behind internal/ring's consistent-hash
//     placement share one request engine (call.go), so completion rules,
//     launch schedules, and the error taxonomy compose instead of
//     forking.
//   - Losing replicas are cancelled through context and their goroutines
//     always run to completion against a buffered channel, so a call never
//     leaks goroutines even when it returns early. A call that sends a
//     single copy to a function replica has no loser and starts no
//     goroutine: it is a function call. Nor does a call over replicas
//     that have a non-blocking form
//     (Starter): its copies are requests started on the caller's
//     goroutine, and a loser is withdrawn rather than cancelled.
//   - Replication is useful precisely when the extra load is affordable
//     (§2 of the paper); Governor is the affordability control: it
//     replicates while utilization stays under the threshold load and
//     sends one copy above it, keeping the copies it withholds as
//     failovers launched only if the copies sent fail (LoadAware, or the
//     SLO controller's governor).
//   - Group adds ranked replica selection (the paper's DNS experiment ranks
//     resolvers by observed mean latency and replicates to the top k).
package core

import (
	"context"
	"errors"
	"time"
)

// Replica is one way of performing an operation: typically one backend
// server, one network path, or one independently-failing resource. A
// Replica must honor ctx cancellation promptly; after the first sibling
// completes, the remaining replicas' contexts are cancelled. A call that
// sends a single copy runs it on the caller's goroutine under the
// caller's own context and returns when the replica returns, or, if it
// failed and the governor withheld a failover, when that one returns.
type Replica[T any] func(ctx context.Context) (T, error)

// Result describes a completed redundant operation.
type Result[T any] struct {
	// Value is the winning replica's result: the first success (for a
	// quorum call, the quorum's fastest response).
	Value T
	// Index is the position (within the launched copies) of the winner.
	Index int
	// Latency is the time from the start of the operation (not of the
	// individual copy) to completion: the winning response, or for a
	// quorum call the quorum-th success.
	Latency time.Duration
	// Launched is how many copies were actually started.
	Launched int
	// Cancelled is how many launched copies were still in flight when the
	// operation completed and were cancelled through their derived
	// contexts, or withdrawn from their Starter — reclaimed capacity,
	// counted separately from failures.
	Cancelled int
}

// Outcome is one copy's result within a call, as WithCollectOutcomes
// gathers it and a QuorumError carries it: Index is the copy's launch
// position and Latency the time from the start of the call.
type Outcome[T any] struct {
	Value   T
	Err     error
	Index   int
	Latency time.Duration
}

// ErrNoReplicas is returned when an operation is attempted with zero
// replicas.
var ErrNoReplicas = errors.New("redundancy: no replicas")

type indexed[T any] struct {
	val T
	err error
	idx int
	// at is when the copy completed, read off the frame's clock by
	// whoever delivered it; on takes it as the event's instant.
	at time.Time
	// timer and cancel mark the frame's timer event (timerFired) and the
	// caller's cancellation (wait) rather than a copy completion: val,
	// err, idx and at are then meaningless, and the instant is read when
	// the event is taken.
	timer, cancel bool
}
