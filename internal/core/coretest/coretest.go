// Package coretest provides scriptable fake replicas for testing the
// redundancy engine. The helpers come in two flavors:
//
//   - Channel-gated replicas (Gate, Blocked, Instant, Fail): fully
//     deterministic, no wall clock anywhere, so tests that assert on
//     ordering, launch counts, or cancellation never race the scheduler
//     and survive `go test -race -count=5` unchanged.
//   - Timed replicas (Sleeper, Failer): for tests whose subject IS a
//     latency distribution (digest warming, ranked selection). They
//     honor context cancellation, and assertions built on them should
//     use order ("the 1ms replica beat the 1h replica"), never absolute
//     elapsed-time windows.
//
// The constructors return plain `func(context.Context) (T, error)`
// values, assignable to core.Replica[T] (and, wrapped, to
// core.ArgReplica), without this package importing core — which is what
// lets core's own in-package tests use it without an import cycle.
package coretest

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Every constructor returns an unnamed func(context.Context) (T, error):
// unnamed types assign freely to the named core.Replica[T], while a
// named type here would not.

// Sleeper returns a replica that yields v after d, or the context error
// if cancelled first.
func Sleeper[T any](v T, d time.Duration) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return v, nil
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// Failer returns a replica that fails with err after d, or returns the
// context error if cancelled first.
func Failer[T any](err error, d time.Duration) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		var zero T
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return zero, err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// Instant returns a replica that yields v immediately.
func Instant[T any](v T) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) { return v, nil }
}

// Fail returns a replica that fails with err immediately.
func Fail[T any](err error) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		var zero T
		return zero, err
	}
}

// Gate is a manually released latch for scripting replica latency
// without a clock: a Blocked replica waits on the gate, and the test
// decides exactly when (and whether) it completes. Release is
// idempotent and safe from any goroutine; a Gate must not be copied
// after first use.
type Gate struct {
	once sync.Once
	ch   chan struct{}
}

// NewGate returns an unreleased gate.
func NewGate() *Gate { return &Gate{ch: make(chan struct{})} }

// Release opens the gate, unblocking every current and future waiter.
func (g *Gate) Release() { g.once.Do(func() { close(g.ch) }) }

// C returns the channel that closes when the gate releases.
func (g *Gate) C() <-chan struct{} { return g.ch }

// Blocked returns a replica that yields v once gate releases, or the
// context error if cancelled first — the deterministic "slow replica":
// it is exactly as slow as the test scripts it to be.
func Blocked[T any](v T, gate *Gate) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		select {
		case <-gate.C():
			return v, nil
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// Counting wraps a replica so each launch increments n before the
// underlying replica runs.
func Counting[T any](n *atomic.Int32, rep func(ctx context.Context) (T, error)) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		n.Add(1)
		return rep(ctx)
	}
}

// CancelReporting wraps a replica so that, whenever the replica returns
// its context's cancellation error, cancelled is released — letting a
// test wait for a losing copy to observe cancellation instead of
// polling.
func CancelReporting[T any](cancelled *Gate, rep func(ctx context.Context) (T, error)) func(ctx context.Context) (T, error) {
	return func(ctx context.Context) (T, error) {
		v, err := rep(ctx)
		if err != nil && ctx.Err() != nil {
			cancelled.Release()
		}
		return v, err
	}
}

// Race reports whether the test binary was built with -race. Exact
// allocation counts hold only without it: the detector's
// instrumentation allocates on its own, and under it sync.Pool drops a
// quarter of its Puts, so pooled frames are remade at random.
func Race() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
