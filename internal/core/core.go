// Package core implements the paper's primary contribution as a reusable
// client library: initiate an operation on several diverse replicas
// concurrently (or after a hedging delay) and use the first result that
// completes, cancelling the rest.
//
// The package is re-exported at the module root as package redundancy;
// application code should import "redundancy" rather than this package.
//
// Design notes:
//
//   - Every way of performing an operation — First, Hedged, Quorum, All,
//     Group.Do with its per-call options, and the routed-subset
//     KeyedGroup.DoPicked behind internal/ring's consistent-hash
//     placement — is a thin layer over one request engine (call.go), so
//     completion rules, launch schedules, and the error taxonomy compose
//     instead of forking.
//   - Losing replicas are cancelled through context and their goroutines
//     always run to completion against a buffered channel, so a call never
//     leaks goroutines even when it returns early. A call with a single
//     copy has no loser and starts no goroutine: it is a function call.
//     Nor does a call over replicas that have a non-blocking form
//     (Starter): its copies are requests started on the caller's
//     goroutine, and a loser is withdrawn rather than cancelled.
//   - Replication is useful precisely when the extra load is affordable
//     (§2 of the paper); Budget provides the affordability control, capping
//     the fraction of operations that may issue extra copies, in the spirit
//     of gRPC hedging throttles.
//   - Group adds ranked replica selection (the paper's DNS experiment ranks
//     resolvers by observed mean latency and replicates to the top k).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Replica is one way of performing an operation: typically one backend
// server, one network path, or one independently-failing resource. A
// Replica must honor ctx cancellation promptly; after the first sibling
// completes, the remaining replicas' contexts are cancelled. A call that
// launches a single copy runs it on the caller's goroutine under the
// caller's own context and returns when the replica returns.
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
	// (Always zero for All, which runs every copy to completion.)
	Cancelled int
}

// BatchResult is one argument's outcome within a batch of calls that
// succeed or fail independently (memkv.ShardedClient.GetBatch): the
// usual Result on success, or in Err the error a lone Do returned.
type BatchResult[T any] struct {
	Result Result[T]
	Err    error
}

// ErrNoReplicas is returned when an operation is attempted with zero
// replicas.
var ErrNoReplicas = errors.New("redundancy: no replicas")

type indexed[T any] struct {
	val T
	err error
	idx int
	// hedge marks a wheel-armed hedge-deadline event rather than a copy
	// completion: idx is the copy the deadline was armed for, val and err
	// are meaningless. See frameHedgeFired in call.go.
	hedge bool
}

// First runs every replica concurrently and returns the first successful
// result, cancelling the others. If every replica fails, it returns the
// per-replica ReplicaErrors joined in completion order. First blocks until
// a winner emerges or all replicas fail; it does NOT wait for cancelled
// losers to finish.
//
// This is the paper's "initiate an operation multiple times, use the first
// result which completes" in its purest form (k-way full replication).
func First[T any](ctx context.Context, replicas ...Replica[T]) (Result[T], error) {
	return call(ctx, callSpec[T]{
		n: len(replicas),
		run: func(ctx context.Context, i int) (T, error) {
			return replicas[i](ctx)
		},
	})
}

// FirstValue is First without the metadata, for call sites that only need
// the value.
func FirstValue[T any](ctx context.Context, replicas ...Replica[T]) (T, error) {
	res, err := First(ctx, replicas...)
	return res.Value, err
}

// Hedged runs replicas with a staggered start: replica 0 immediately, and
// each subsequent replica only if no response has arrived delay after the
// previous launch. If an outstanding copy fails, the next copy is launched
// immediately. This is the "hedged request" variant of redundancy: most of
// the tail-latency benefit of full replication at a small fraction of the
// added load (only operations slower than delay incur extra copies).
//
// A non-positive delay launches every copy immediately — Hedged(ctx, 0,
// rs...) is First(ctx, rs...) — with no timer on the path.
func Hedged[T any](ctx context.Context, delay time.Duration, replicas ...Replica[T]) (Result[T], error) {
	sp := callSpec[T]{
		n: len(replicas),
		run: func(ctx context.Context, i int) (T, error) {
			return replicas[i](ctx)
		},
	}
	if delay > 0 {
		delays := make([]time.Duration, len(replicas))
		for i := range delays {
			delays[i] = delay
		}
		sp.delays = delays
	}
	return call(ctx, sp)
}

// HedgedSchedule is Hedged with an explicit per-copy delay schedule:
// replica i+1 launches delays[i+1] after replica i (delays[0] is ignored;
// the first copy always starts immediately). A non-positive entry launches
// its copy immediately, together with its predecessor — zero entries
// express full replication for a prefix of the schedule.
func HedgedSchedule[T any](ctx context.Context, delays []time.Duration, replicas ...Replica[T]) (Result[T], error) {
	if len(replicas) == 0 {
		var zero Result[T]
		return zero, ErrNoReplicas
	}
	if len(delays) != len(replicas) {
		var zero Result[T]
		return zero, fmt.Errorf("redundancy: %d delays for %d replicas", len(delays), len(replicas))
	}
	return call(ctx, callSpec[T]{
		n:      len(replicas),
		delays: delays,
		run: func(ctx context.Context, i int) (T, error) {
			return replicas[i](ctx)
		},
	})
}
