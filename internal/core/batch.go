package core

import (
	"context"
	"errors"
	"time"
)

// This file is the batched call engine: DoBatch runs one redundant
// operation per argument while paying the per-call fixed costs once for
// the whole batch. A single Do loads the membership snapshot, resolves
// options and strategy into a plan, selects replicas, computes the
// launch schedule, and arms a runtime timer per pending hedge; DoBatch
// does each of those exactly once and shares the result across every
// argument, and all hedge deadlines arm on the shared hierarchical
// TimerWheel instead of N time.NewTimers. The amortized cost per key is
// a fraction of a single Do (benchgate holds a 64-key batch to <= 80
// allocations against the single call's 10).
//
// Semantics differ from N independent Do calls in two documented ways:
//
//   - Cancellation is batch-scoped. A single Do derives a per-copy
//     context cancelled the instant its call completes; batch copies
//     run under the caller's context directly, so a losing copy that
//     already launched runs to completion (its latency still feeds the
//     digests). The reclaim mechanism for batches is the hedge that
//     never launches: a pending wheel deadline is disarmed for free
//     when its key resolves first, which under hedged strategies is
//     the common case. Cancelling ctx still cancels every copy of
//     every key at once.
//   - Replica selection is computed once for the batch (one ranked or
//     random pick), not per argument; every argument uses the same
//     ordered replica set, as one connection-level round should.
//
// WithCollectOutcomes is not supported on batches (there is one sink
// and many calls); DoBatch fails with an error if it is passed.

// BatchResult is one argument's outcome within a DoBatch: the usual
// Result on success, or the same error a lone Do would have returned
// (joined ReplicaErrors, or a *QuorumError without partial outcomes for
// quorum calls) in Err.
type BatchResult[T any] struct {
	Result Result[T]
	Err    error
}

// batchEvent is one completion (or hedge deadline) delivered to the
// batch event loop. Events travel by value through a channel buffered
// for the batch's worst case, so senders never block and never leak.
type batchEvent[T any] struct {
	val   T
	err   error
	ki    int32
	ci    int32
	hedge bool
}

// batchKey is the per-argument state of a running batch, kept in one
// slice for the whole batch (no per-key allocation).
type batchKey struct {
	launched  int32
	completed int32
	wins      int32
	resolved  bool
	timerSet  bool
	timerCi   int32 // copy index the armed timer is for, valid while timerSet
	timer     WheelTimer
	errs      []error
}

// batchRun is the state shared by a batch's copy goroutines and wheel
// callbacks: one allocation per batch.
type batchRun[K, T any] struct {
	ctx    context.Context
	args   []K
	picked []Handle[K, T]
	gov    *Governor
	events chan batchEvent[T]
}

// runBatchCopy performs one copy of one argument. It is a plain
// function (not a closure) so launching it costs only the go
// statement's argument frame.
func runBatchCopy[K, T any](b *batchRun[K, T], ki, ci int32) {
	m := b.picked[ci].m
	v, _, err := m.run(b.ctx, b.args[ki], b.gov)
	if err != nil {
		err = ReplicaError{Name: m.name, Attempt: int(ci), Err: err}
	}
	b.events <- batchEvent[T]{val: v, err: err, ki: ki, ci: ci}
}

// batchHedgeFired is the wheel callback for a pending hedge: it turns
// the deadline into an event for the batch loop. The key and copy index
// are packed into the wheel's int64 argument so arming a timer
// allocates nothing.
func batchHedgeFired[K, T any](c any, i int64) {
	b := c.(*batchRun[K, T])
	b.events <- batchEvent[T]{ki: int32(i >> 32), ci: int32(i & 0xFFFFFFFF), hedge: true}
}

// DoBatch performs one redundant operation per argument under the
// group's strategy (or the per-call options), amortizing the snapshot
// load, planning, selection, scheduling, and hedge timers across the
// batch; see the file comment for how batch semantics differ from N
// single calls. The returned slice has one BatchResult per argument, in
// order. The error is batch-level only (no replicas, unreachable
// quorum, unsupported option); per-argument failures are in the slice.
func (g *KeyedGroup[K, T]) DoBatch(ctx context.Context, args []K, opts ...CallOption) ([]BatchResult[T], error) {
	if len(args) == 0 {
		return nil, nil
	}
	st := g.state.Load()
	n := len(st.members)
	if n == 0 {
		return nil, ErrNoReplicas
	}
	var co callOpts
	if len(opts) > 0 {
		co = applyCallOptions(opts)
	}
	p, err := g.batchPlan(st, &co, n, n)
	if err != nil {
		return nil, err
	}
	picked := make([]Handle[K, T], p.k)
	g.pickInto(st, p.sel, picked)
	return g.doBatch(ctx, args, &p, picked)
}

// DoBatchPicked is DoBatch over an explicit, ordered replica subset
// (see DoPicked): picked[0] is every argument's primary, picked[1] the
// first hedge or quorum peer, and so on. It is the batched routing
// primitive behind Ring.DoBatch, which groups keys by placement and
// runs one DoBatchPicked per distinct placement.
func (g *KeyedGroup[K, T]) DoBatchPicked(ctx context.Context, args []K, picked []Handle[K, T], opts ...CallOption) ([]BatchResult[T], error) {
	if len(args) == 0 {
		return nil, nil
	}
	n := len(picked)
	if n == 0 {
		return nil, ErrNoReplicas
	}
	for _, h := range picked {
		if h.m == nil {
			return nil, errors.New("redundancy: DoBatchPicked: zero Handle")
		}
	}
	st := g.state.Load()
	var co callOpts
	if len(opts) > 0 {
		co = applyCallOptions(opts)
	}
	capacity := len(st.members)
	if capacity < n {
		capacity = n
	}
	p, err := g.batchPlan(st, &co, n, capacity)
	if err != nil {
		return nil, err
	}
	if p.k < n {
		picked = picked[:p.k]
	}
	return g.doBatch(ctx, args, &p, picked)
}

// batchPlan is plan plus the batch-only option check.
func (g *KeyedGroup[K, T]) batchPlan(st *groupState[K, T], co *callOpts, n, capacity int) (callPlan[T], error) {
	if co.outcomes != nil {
		var p callPlan[T]
		return p, errors.New("redundancy: WithCollectOutcomes is not supported by DoBatch")
	}
	return g.plan(st, co, n, capacity)
}

// doBatch executes one planned batch over the picked replicas.
func (g *KeyedGroup[K, T]) doBatch(ctx context.Context, args []K, p *callPlan[T], picked []Handle[K, T]) ([]BatchResult[T], error) {
	q := p.q
	copies := len(picked)

	// The budget charges only hedge copies (beyond the quorum), spread
	// evenly: a partial grant trims every key's fan-out the same way,
	// and the unused remainder of the grant is refunded immediately.
	granted := 0
	if extra := copies - q; extra > 0 && g.budget != nil {
		got := g.budget.Acquire(extra * len(args))
		perKey := got / len(args)
		if rem := got - perKey*len(args); rem > 0 {
			g.budget.Release(rem)
		}
		granted = perKey * len(args)
		if perKey < extra {
			copies = q + perKey
			picked = picked[:copies]
		}
	}

	delays := g.scheduleInto(p, picked, q, nil)

	out := make([]BatchResult[T], len(args))
	keys := make([]batchKey, len(args))
	b := &batchRun[K, T]{
		ctx:    ctx,
		args:   args,
		picked: picked,
		gov:    p.gov,
		// Buffered for every possible event — copies*len(args)
		// completions plus a hedge deadline per staggered copy — so
		// senders never block, even after doBatch returns.
		events: make(chan batchEvent[T], len(args)*(2*copies)),
	}
	wheel := SharedWheel()
	// Bind the generic callback's dictionary once per batch: mentioning
	// batchHedgeFired[K, T] inside the arming loop would materialize a
	// fresh funcval per armed hedge — one hidden allocation per key.
	hedgeFired := batchHedgeFired[K, T]
	start := time.Now()

	// advance launches ks's next copies: everything immediately
	// launchable (fireNow overrides the first copy's pending delay —
	// its deadline already elapsed or its predecessors all failed),
	// then arms the wheel for the first copy that must wait.
	advance := func(ki int32, fireNow bool) {
		ks := &keys[ki]
		for int(ks.launched) < copies {
			ci := ks.launched
			if !fireNow && ci > 0 && delays != nil && delays[ci] > 0 {
				ks.timer = wheel.AfterFunc(delays[ci], hedgeFired, b, int64(ki)<<32|int64(ci))
				ks.timerSet = true
				ks.timerCi = ci
				return
			}
			fireNow = false
			ks.launched++
			go runBatchCopy(b, ki, ci)
		}
	}

	resolved := 0
	finish := func(ki int32, err error) {
		ks := &keys[ki]
		if ks.timerSet {
			ks.timer.Stop()
			ks.timerSet = false
		}
		ks.resolved = true
		resolved++
		out[ki].Err = err
		out[ki].Result.Launched = int(ks.launched)
		out[ki].Result.Cancelled = int(ks.launched - ks.completed)
		if g.observer != nil {
			name := ""
			if err == nil {
				name = picked[out[ki].Result.Index].m.name
			}
			g.observer.Observe(Observation{
				Winner:    name,
				Launched:  out[ki].Result.Launched,
				Cancelled: out[ki].Result.Cancelled,
				Latency:   out[ki].Result.Latency,
				Err:       err,
				Label:     p.label,
			})
		}
	}
	release := func() {
		if granted > 0 {
			used := 0
			for i := range keys {
				if u := int(keys[i].launched) - q; u > 0 {
					used += u
				}
			}
			if granted > used {
				g.budget.Release(granted - used)
			}
		}
	}

	for ki := range args {
		advance(int32(ki), false)
	}

	ctxDone := ctx.Done()
	for resolved < len(args) {
		select {
		case ev := <-b.events:
			ks := &keys[ev.ki]
			if ev.hedge {
				// Only the event for the currently armed copy disarms the
				// bookkeeping: a stale event (its timer was Stopped racing
				// the fire, and the failure path armed a NEW timer for a
				// later copy) must not clear timerSet, or finish/ctx-cancel
				// would skip Stop on the live timer.
				if ks.timerSet && ks.timerCi == ev.ci {
					ks.timerSet = false
				}
				// Stale deadline (the copy was already launched by the
				// failure path, or the key resolved): ignore.
				if !ks.resolved && ks.launched == ev.ci {
					advance(ev.ki, true)
				}
				continue
			}
			ks.completed++
			if ks.resolved {
				continue // late loser; its latency already fed the digest
			}
			if ev.err == nil {
				ks.wins++
				if ks.wins == 1 {
					out[ev.ki].Result.Value = ev.val
					out[ev.ki].Result.Index = int(ev.ci)
				}
				if int(ks.wins) >= q {
					out[ev.ki].Result.Latency = time.Since(start)
					finish(ev.ki, nil)
				}
				continue
			}
			ks.errs = append(ks.errs, ev.err)
			if int(ks.wins)+copies-int(ks.completed) < q {
				// Too few copies remain for the quorum; fail the key now.
				joined := errors.Join(ks.errs...)
				if q > 1 {
					finish(ev.ki, &QuorumError[T]{Need: q, Wins: int(ks.wins), Err: joined})
				} else {
					finish(ev.ki, joined)
				}
				continue
			}
			if ks.completed == ks.launched && int(ks.launched) < copies {
				// Every outstanding copy failed and more are allowed:
				// launch the next immediately instead of waiting out
				// its hedge delay.
				if ks.timerSet {
					ks.timer.Stop()
					ks.timerSet = false
				}
				advance(ev.ki, true)
			}
		case <-ctxDone:
			err := ctx.Err()
			for ki := range keys {
				ks := &keys[ki]
				if ks.resolved {
					continue
				}
				if ks.timerSet {
					ks.timer.Stop()
					ks.timerSet = false
				}
				ks.resolved = true
				out[ki].Err = err
				out[ki].Result.Launched = int(ks.launched)
				out[ki].Result.Cancelled = int(ks.launched - ks.completed)
			}
			release()
			return out, nil
		}
	}
	release()
	return out, nil
}

// scheduleInto resolves one call's (or batch's) launch schedule into
// buf: the Fixed fast path, the strategy's ScheduleInto (or legacy
// Schedule, normalized) over the picked digests, and the quorum rule
// that the first q copies always launch immediately. buf must have
// length len(picked) or be nil, in which case a buffer is allocated
// only if a schedule actually materializes. The returned schedule is
// always backed by the (caller-owned) buffer — never strategy-owned
// memory — so the quorum zeroing mutates in place without cloning. nil
// means launch every copy at once.
func (g *KeyedGroup[K, T]) scheduleInto(p *callPlan[T], picked []Handle[K, T], q int, buf []time.Duration) []time.Duration {
	copies := len(picked)
	if copies <= 1 {
		return nil
	}
	var delays []time.Duration
	if p.isFixed {
		if p.fixed.HedgeDelay <= 0 {
			return nil
		}
		if buf == nil {
			buf = make([]time.Duration, copies)
		}
		delays = buf
		for i := range delays {
			delays[i] = p.fixed.HedgeDelay
		}
	} else if _, full := p.strat.(FullReplicate); full {
		return nil
	} else {
		if buf == nil {
			buf = make([]time.Duration, copies)
		}
		delays = strategyScheduleInto(p.strat, memberDigests[K, T]{ms: picked}, buf)
		if delays == nil {
			return nil
		}
	}
	if q > 1 {
		// The quorum copies are correctness requirements, not latency
		// hedges: delaying them can only serialize the quorum. Launch the
		// first q immediately; copies beyond the quorum keep the
		// strategy's hedge schedule.
		for i := 0; i < q && i < len(delays); i++ {
			delays[i] = 0
		}
	}
	return delays
}
