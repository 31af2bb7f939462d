package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the single request execution engine behind every
// redundant call. A call has one entrance: KeyedGroup.do (Do)
// or DoPicked (the Ring's routed subsets) plans it, and a plan with one
// copy on its schedule whose primary is a function replica runs in
// runOne, any other in launchFrame; StepPicked (step.go) plans as
// DoPicked does and steps the same frame on a simulator's clock. One engine
// means every completion rule (first wins, R-of-N quorum) composes with
// every launch schedule (all at once, fixed hedge, adaptive hedge) and
// shares one error taxonomy.
//
// A plan has k copies, after strategy, fan-out cap and quorum have had
// their say, and puts the first of them on its schedule: all k, or as
// many as a Governor allows (never fewer than the quorum). A copy the
// governor withheld is a failover: no hedge is armed for it, and it
// launches only when every copy out has completed and the call is still
// undecided, which is on's rule for any call whose copies out have all
// failed before the next hedge. Above the threshold load a call so costs
// one copy while the replicas answer, and one failing replica still
// does not fail it.
//
// What a call costs depends on how many copies its schedule launches and
// on what kind of replica those copies go to:
//
//	on the schedule  replicas            engine allocations   goroutines
//	1                function replicas   0                    0 (function calls)
//	any              starters            0                    0 (wire requests)
//	>= 2             function replicas   2 (cdone + copyCtx)  one per copy
//
//   - One copy over function replicas (k=1: redundancy off,
//     WithFanoutCap(1); or a schedule of one: the rest withheld by a
//     Governor) is a function call. The replica runs on the caller's
//     goroutine under the caller's own context and runOne turns its
//     return into the Result: no frame, no channel, no timer. A withheld
//     copy runs the same way, after the one before it failed. The paper's
//     §2.3 caveat is that redundancy loses once client-side overhead
//     rivals the service time, so the state the load controls clamp to
//     must not pay for machinery it does not use. The contract that
//     follows from it: the call returns when its last replica returns (a
//     replica must honor ctx, as Replica documents), the copy's context
//     is the caller's and so is NOT cancelled when the call returns, and
//     a replica panic unwinds the caller's stack. A primary with a
//     Starter is started through a frame instead, one copy too: a wire
//     request costs the frame nothing, and a blocking one would ask the
//     caller's context for its Done channel at once (see the context
//     watch below).
//   - Every other call needs a watcher — the winner cancels the
//     loser, a hedge waits on a deadline, the caller may give up first —
//     which is the caller waiting on a reusable call frame (callFrame):
//     one struct carrying the results channel, the picked replicas, the
//     launch schedule, the call's running state, and inline scratch for
//     the common fan-out <= 4 case. Frames recycle through a per-group
//     sync.Pool under a proved-drained discipline (callFrame.release):
//     a frame returns to the pool only after every
//     launched copy and the frame's armed timer have delivered into the
//     buffered results channel (or been withdrawn) and the channel has
//     been drained, so a loser still in flight pins the frame alive.
//     The frame is also the Digests view a Strategy's schedule reads.
//     What launching a copy costs depends on the member it goes to.
//   - A member registered with a Starter (AddStarter; memkv.MuxClient's
//     reads) is asked to START the copy, not to run it. Start enqueues
//     the request on the caller's goroutine without blocking and the
//     completion is delivered straight into the frame — the call's Sink —
//     from whichever goroutine learns of it (the mux connection's
//     reader); the decision ends a call by Cancelling what is still out. A
//     copy is then a wire request, not a goroutine: no go statement, no
//     derived context, no cancellation channel, no per-copy wake-up. The
//     completion that queues the call's deciding success also marks the
//     frame settled, on that goroutine, so a loser's reply that lands
//     before the caller has run again to Cancel it is not decoded for
//     nobody: its Starter asks (Sink.Drop) and skips it.
//   - A function replica (Add) blocks, so its copy in a frame needs a
//     goroutine and a context the winner can cancel: the call makes its
//     cancellation channel and one shared derived context the first time
//     it launches such a copy — 2 allocations, whatever the fan-out. The
//     per-slot goroutine bodies are built once per frame and reused. A
//     copy whose Starter declines (its connection is down) is launched
//     this way too, through the member's blocking replica.
//
// A call in a frame is a state machine whose state lives in its
// frame. begin launches it at an instant; on is its one transition,
// which takes one event — a copy's completion, the frame's timer event,
// or the caller's cancellation — with the instant it happened, and
// reports whether the call is decided. on never blocks and reads no
// clock. Two loops feed it. wait, a live call's, selects the next event
// and hands it to on; pump, a stepped call's (StepPicked, step.go),
// hands on each event as it is queued, on the goroutine that queued it,
// and waits for nothing. A test can step a call by handing on its
// events and instants itself.
//
// A frame reads its instants, and makes its one timer, on its clock:
// the wall clock for every live call, the clock a stepped call's caller
// passes (a simulator's virtual time) for a stepped one. A copy's
// completion carries the instant its deliverer read — Complete reads the
// clock once, for the member's digest and the event alike — so the
// event's instant is when the copy completed, and the loop reads the
// clock only for a timer or cancellation event. A call started over
// starters so reads the clock once at its start and once per completion:
// twice for one copy. Result.Latency ends at the deciding completion,
// not at the moment the caller's goroutine took it.
//
// A group may carry a per-copy hook (NewReportingKeyedGroup), and every
// launched copy reports to it exactly once (CopyDone), from where its
// outcome is settled: on, for a completion the call takes; end, for a
// completion queued by the decision (drainCompleted), a copy withdrawn
// in flight, and a quorum call's successes that only its own outcome
// scratch held (reportOuts); release's drain, for a straggler that
// completes after the caller returned; and runOne, for a copy run
// inline. A report carries the copy's value only when no caller receives
// it, so a group whose values are pooled buffers gives back what it
// decoded for nobody. A replicated write (DoDurable) is an ordinary call
// of such a group: its losers must land, because durability is the
// point, and its Starter's Cancel refuses, so deciding it withdraws
// nothing and each straggler reports where it completes.
//
// A frame owns one runtime timer, made on its first deadline and kept
// with it in the pool, armed for the earlier of the next hedge (hedgeAt)
// and the context watch (watchAt). A fire only says "look at the clock":
// it posts one timer event, and on acts on whatever its instant says is
// due and re-arms for the rest, so a stale event, from a fire a
// re-arm came too late for, launches nothing early and drops no watch.
//
// The caller's context is watched from watchDelay (1ms) on, not from
// the call's first instruction (watchCtx). A cancellable context makes
// its Done channel lazily, an allocation, and most calls end well
// inside a millisecond, so a call with copies out sets its watch
// deadline watchDelay out and asks for ctx.Done() only once the timer
// says it is due. (A call run inline watches nothing itself: it hands
// the context to its replicas.) The rule a caller sees: a cancellation
// or deadline that lands in the first millisecond ends the call at 1ms,
// and one that lands later ends it at once; the error is the bare
// ctx.Err() and the copies out count as Cancelled, as ever. A context
// that is never cancelled (context.Background, context.TODO), one
// already done, and one whose deadline is less than watchDelay away are
// watched at once.

// ReplicaError describes one replica's failure within a redundant
// operation. Errors from a failed operation are joined with errors.Join,
// so errors.As(&ReplicaError{}) recovers the first per-replica detail and
// errors.Is reaches every underlying cause.
type ReplicaError struct {
	// Name is the replica's registration name.
	Name string
	// Attempt is the copy's launch index within the operation (0 is the
	// primary).
	Attempt int
	// Err is the replica's error.
	Err error
}

// Error implements error: "replica <name> (copy <attempt>): <err>", or
// "replica <attempt>: <err>" for a replica registered without a name.
func (e ReplicaError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("replica %s (copy %d): %v", e.Name, e.Attempt, e.Err)
	}
	return fmt.Sprintf("replica %d: %v", e.Attempt, e.Err)
}

// Unwrap returns the underlying replica error.
func (e ReplicaError) Unwrap() error { return e.Err }

// ErrQuorumUnreachable reports that an operation's quorum cannot be (or
// could not be) met: too many replicas failed, or the requested quorum
// exceeds the replica set. Match it with errors.Is; errors.As into a
// *QuorumError recovers the partial outcomes.
var ErrQuorumUnreachable = errors.New("redundancy: quorum unreachable")

// QuorumError is the failure of a quorum (q > 1) call. It carries the
// partial outcomes — every copy that completed, success or failure, in
// completion order — so callers can salvage reads that reached some but
// not all replicas. errors.Is(err, ErrQuorumUnreachable) matches it, and
// errors.Is also reaches each replica's underlying error through the
// joined ReplicaErrors in Err.
type QuorumError[T any] struct {
	// Need is the required number of successes; Wins is how many arrived
	// (negative answers included, see WithNegativeAnswer).
	Need, Wins int
	// Outcomes are the completed copies' outcomes in completion order.
	Outcomes []Outcome[T]
	// Err is the joined per-replica failure detail.
	Err error
}

// Error implements error.
func (e *QuorumError[T]) Error() string {
	return fmt.Sprintf("redundancy: quorum %d unreachable (%d succeeded): %v", e.Need, e.Wins, e.Err)
}

// Unwrap exposes both the ErrQuorumUnreachable sentinel and the joined
// replica errors to errors.Is/errors.As.
func (e *QuorumError[T]) Unwrap() []error { return []error{ErrQuorumUnreachable, e.Err} }

// copyCtx is the per-call derived context every blocking copy of a
// multi-copy call receives: its Done channel closes the moment the
// operation completes — first win, quorum met, unrecoverable failure, or
// caller cancel — so losing copies stop work and release their replica
// promptly. All copies of one call are cancelled at the same instant, so
// they share a single copyCtx (one allocation per call, not per copy);
// deadlines and values pass through from the caller's context. The
// context is NOT part of the recycled frame: a replica function may
// legally retain its context beyond the call, and a recycled context
// would mutate under it.
//
// copyCtx is not one of the standard library's context types and its
// Done is never nil, so context.AfterFunc and context.WithCancel on it
// start a watcher goroutine per use — dnswire.Client.Exchange pays that
// for every copy, even under a context.Background() caller. A frame's
// blocking copies need a cancellation signal the caller's context
// cannot give (the winner cancels the loser), so they keep paying; a
// call run inline has no loser, hands each replica the caller's context
// itself, and does not.
type copyCtx struct {
	context.Context // parent: Deadline and Value pass through
	done            <-chan struct{}
}

// Done implements context.Context.
func (c *copyCtx) Done() <-chan struct{} { return c.done }

// Err implements context.Context. Once the call completes, the copy is
// cancelled; a caller-level cancellation cause is preserved.
func (c *copyCtx) Err() error {
	select {
	case <-c.done:
		if err := c.Context.Err(); err != nil {
			return err
		}
		return context.Canceled
	default:
		return c.Context.Err()
	}
}

const (
	// frameInline is the fan-out up to which a call frame's picked
	// replicas, launch schedule, error scratch, outcome scratch and
	// started copies' slots live in fixed inline arrays; larger fan-outs
	// spill to slices.
	// 4 covers the paper's entire operating range (the marginal value of
	// copies beyond ~4 is negligible at every load it studies).
	frameInline = 4
	// frameChanCap is the results-channel capacity a pooled frame is
	// born with: n completions and one timer event for n <= frameInline.
	frameChanCap = frameInline + 1
	// watchDelay is how long a call with copies out runs before it asks
	// for its caller's Done channel (watchCtx).
	watchDelay = time.Millisecond
	// launchOnFailure is the schedule entry of a copy the governor
	// withheld: no hedge is armed for it, and it launches only when every
	// copy out has completed and the call is still undecided (on).
	launchOnFailure = time.Duration(math.MaxInt64)
)

// callFrame is the reusable per-call state of the engine. Frames come
// from the group's pool and follow the recycling discipline: the frame
// is shared with every launched copy — a goroutine, or a started copy's
// pending completion — and with its timer while armed, each of which
// holds one reference; release(1) drops a reference, and the
// holder that drops the last one drains the results channel and returns
// the frame to the pool. The launcher writes every plan field before the
// first copy launches and never mutates them afterwards, so copies read
// them without synchronization.
type callFrame[K, T any] struct {
	// results carries copy completions and timer events. It is buffered
	// for the worst case (n completions + 1 timer event, since at most
	// one is queued at a time), so senders never block. The channel is
	// reused across calls; it only grows (and is reallocated) when a
	// call's fan-out exceeds its capacity less one.
	results chan indexed[T]
	// pool is the group's frame pool, where release returns the frame.
	// done is the group's per-copy hook and own its argument owner, nil
	// for none (NewReportingKeyedGroup). All three are the group's, set
	// when the frame is made.
	pool *sync.Pool
	done func(CopyDone[K, T])
	own  func(K) K
	// refs counts the engine, every launched copy (until its goroutine
	// delivers, or its started request completes or is withdrawn) and the
	// timer while it is armed. The frame recycles only when it hits zero.
	refs atomic.Int32
	// won counts the successes copies have queued on results. Once it
	// reaches the quorum of a call that collects no outcomes, the call
	// is settled (see settled); a copy reads it on its own goroutine,
	// before dropping its reference. It returns to zero only when the
	// frame recycles, so a straggler never reads a later call's count.
	won atomic.Int32
	// clock is the frame's clock (see the file comment); nil is the wall
	// clock. tm is the frame's one timer, made on the clock by the frame's
	// first deadline. hedgeAt is when the next unlaunched copy launches
	// and watchAt when the call starts watching its context; zero is none.
	// Only the engine's goroutine touches the four.
	clock            Clock
	tm               Timer
	hedgeAt, watchAt time.Time
	// timerQueued is set while a timer event waits on results; a fire
	// that finds it set sends nothing.
	timerQueued atomic.Bool
	// finish, set while a stepped call is undecided, is what pump runs
	// once on decides it; pumping is set while pump runs. A live call
	// has neither.
	finish  func()
	pumping bool
	// copyFn[i] is slot i's goroutine body, built on first use and kept
	// with the frame: go with a stored func value needs no per-launch
	// wrapper, where go f(fr, i) heap-allocates one.
	copyFn [frameInline]func()

	// Plan fields: written by the launcher before any copy starts.
	n       int
	quorum  int
	delays  []time.Duration
	collect *[]Outcome[T]
	// negative is the WithNegativeAnswer sentinel: a copy failing with
	// it answered, and counts toward the quorum.
	negative error
	gov      *Governor
	// arg is the call's argument: the caller's until it returns, then,
	// while a copy is still out, own's form of it (leave).
	arg    K
	picked []Handle[K, T]

	// The call's running state, the engine's alone from begin to the
	// decision: the copies launched and completed, the successes and
	// negative answers on has counted (wins), the failures (errs), the
	// first success (found, res.Value and res.Index), the first negative
	// answer, the start instant and the last event's (at), the caller's
	// Done channel once watched, and the outcome (res, err). release
	// clears it.
	launched, completed, wins int
	errs                      []error
	found                     bool
	answer                    error
	start, at                 time.Time
	ctxDone                   <-chan struct{}
	res                       Result[T]
	err                       error

	// cctx is what blocking copies run under and cdone what cancels it.
	// Both are made by the first blocking launch of a call (blockingCtx):
	// a call whose copies are all started requests has neither. cctx is
	// read by copy goroutines that may start after the call returned, so
	// it is cleared only when the frame recycles; cdone belongs to the
	// engine alone and end closes it.
	cctx  context.Context
	cdone chan struct{}
	// slots is the per-copy state of started copies, sized by the first
	// copy a call starts: slotsBuf up to frameInline copies, a slice of
	// its own (kept with the pooled frame) past it.
	slots []copySlot

	// outs backs the quorum-failure partial outcomes when the caller did
	// not pass WithCollectOutcomes; failure clones out of it before
	// the frame can recycle.
	outs []Outcome[T]
	// pickedSpill backs picked past frameInline copies (pickedSlice).
	pickedSpill []Handle[K, T]

	// Inline storage for fan-out <= frameInline.
	pickedBuf [frameInline]Handle[K, T]
	delaysBuf [frameInline]time.Duration
	errsBuf   [frameInline]error
	outsBuf   [frameInline]Outcome[T]
	slotsBuf  [frameInline]copySlot
}

// Len and At make the frame the Digests view of its picked replicas,
// in launch order, that a Strategy's ScheduleInto reads: the frame is a
// pointer already, so passing it as an interface allocates nothing.
func (fr *callFrame[K, T]) Len() int            { return len(fr.picked) }
func (fr *callFrame[K, T]) At(i int) *LatDigest { return &fr.picked[i].m.lat }

// pickedSlice sizes fr.picked for k copies: inline when k fits, else in
// a slice of the frame's own, kept with the pooled frame as slots is.
func (fr *callFrame[K, T]) pickedSlice(k int) []Handle[K, T] {
	switch {
	case k <= frameInline:
		fr.picked = fr.pickedBuf[:k]
	case cap(fr.pickedSpill) >= k:
		fr.picked = fr.pickedSpill[:k]
	default:
		fr.pickedSpill = make([]Handle[K, T], k)
		fr.picked = fr.pickedSpill
	}
	return fr.picked
}

// delaysSlice returns a schedule buffer of length n, inline when it fits.
func (fr *callFrame[K, T]) delaysSlice(n int) []time.Duration {
	if n <= frameInline {
		return fr.delaysBuf[:n]
	}
	return make([]time.Duration, n)
}

// ensureChan guarantees the results channel can absorb every event a
// call with fan-out n can produce (n completions + 1 timer event).
func (fr *callFrame[K, T]) ensureChan(n int) {
	if fr.results == nil || cap(fr.results) < n+1 {
		fr.results = make(chan indexed[T], n+1)
	}
}

// launchCopy starts copy i under the caller's ctx at now. The reference
// is taken before the copy exists so the frame cannot recycle out from
// under it. A member with a Starter is asked to start the copy; a
// function replica — or a Starter that declines — runs on a goroutine.
func (fr *callFrame[K, T]) launchCopy(ctx context.Context, i int, now time.Time) {
	fr.refs.Add(1)
	if fr.picked[i].m.starter != nil && fr.startCopy(i, now) {
		return
	}
	fr.blockingCtx(ctx)
	if i >= frameInline {
		go runFrameCopy(fr, i)
		return
	}
	if fr.copyFn[i] == nil {
		fr.copyFn[i] = func() { runFrameCopy(fr, i) }
	}
	go fr.copyFn[i]()
}

// blockingCtx makes the context the call's blocking copies share, once
// per call: a copyCtx whose done channel end closes. A group that owns
// its arguments owns this one first, since a copy's goroutine may read
// it after the caller returned.
func (fr *callFrame[K, T]) blockingCtx(ctx context.Context) {
	if fr.cctx != nil {
		return
	}
	if fr.own != nil {
		fr.arg = fr.own(fr.arg)
	}
	fr.cdone = make(chan struct{})
	fr.cctx = &copyCtx{Context: ctx, done: fr.cdone}
}

// runFrameCopy is one blocking copy's goroutine body: the member's
// governed, recording run. The error travels raw; on wraps it in a
// ReplicaError if it consumes it, so a drained loser's error
// allocates nothing.
func runFrameCopy[K, T any](fr *callFrame[K, T], i int) {
	v, _, err := fr.picked[i].m.run(fr.cctx, fr.arg, fr.gov)
	fr.deliver(indexed[T]{val: v, err: err, idx: i, at: fr.now()})
}

// deliver queues a copy's completion ev for on, counts a success toward
// settling the call — after queueing it, so that whoever sees the call
// settled queues behind the deciding success — hands it on if the call
// is stepped (pump), and drops the copy's frame reference.
func (fr *callFrame[K, T]) deliver(ev indexed[T]) {
	fr.results <- ev
	if ev.err == nil {
		fr.won.Add(1)
	}
	fr.pump()
	fr.release(1)
}

// settled reports that the call's outcome can no longer change: the
// successes it returns at are queued, and it keeps nothing of the copies
// that complete after them. A copy that has not delivered yet may then
// complete without its value (Drop). A call collecting outcomes asked
// to see what its copies return, so it never settles.
func (fr *callFrame[K, T]) settled() bool {
	return fr.collect == nil && int(fr.won.Load()) >= fr.quorum
}

// report hands copy ev.idx's outcome to the group's per-copy hook, if it
// has one: with its value if it is a success that no caller receives
// (nobody), without it otherwise.
func (fr *callFrame[K, T]) report(ev indexed[T], nobody bool) {
	if fr.done == nil {
		return
	}
	c := CopyDone[K, T]{Arg: fr.arg, Replica: fr.picked[ev.idx].m.name, Err: ev.err}
	if nobody && ev.err == nil {
		c.Value = ev.val
	}
	fr.done(c)
}

// leave is the caller's return from a call in a frame: a copy still out
// reports after it (release's drain), so a group that owns its arguments
// owns this one first, unless a blocking launch has; then the engine's
// reference is dropped.
func (fr *callFrame[K, T]) leave() {
	if fr.own != nil && fr.cctx == nil && fr.completed < fr.launched {
		fr.arg = fr.own(fr.arg)
	}
	fr.release(1)
}

// timerFired is the function of the frame's timer: it posts one timer
// event, unless one is queued already, and drops the reference the
// arming took. The buffered channel absorbs the send without blocking.
func (fr *callFrame[K, T]) timerFired() {
	if fr.timerQueued.CompareAndSwap(false, true) {
		fr.results <- indexed[T]{timer: true}
		fr.pump()
	}
	fr.release(1)
}

// release drops n references. The holder that drops the last reference
// proves the results channel empty (every sender has already delivered
// — copies deliver before releasing, and a fired hedge delivers in its
// callback), reporting the stragglers, and recycles the frame.
func (fr *callFrame[K, T]) release(n int32) {
	if fr.refs.Add(-n) != 0 {
		return
	}
	// Sole owner: no copy, timer, or engine reference remains, so no
	// send can race this drain.
drain:
	for {
		select {
		case r := <-fr.results:
			if !r.timer {
				fr.report(r, true)
			}
		default:
			break drain
		}
	}
	fr.timerQueued.Store(false)
	if fr.clock != nil {
		// A stepped call's timer runs on its caller's clock, which the
		// frame's next call may not share.
		fr.clock, fr.tm = nil, nil
	}
	// Clear everything a pooled frame must not pin or leak into its
	// next call: replica handles, the caller's context and sink, the
	// argument, the running state, and the inline error/outcome scratch.
	var zk K
	fr.arg = zk
	fr.gov = nil
	fr.cctx = nil
	fr.launched, fr.completed, fr.wins, fr.errs, fr.found = 0, 0, 0, nil, false
	fr.answer, fr.ctxDone, fr.err = nil, nil, nil
	fr.start, fr.at, fr.res = time.Time{}, time.Time{}, Result[T]{}
	fr.collect = nil
	fr.negative = nil
	fr.delays = nil
	clear(fr.picked) // handles pin their members
	fr.picked = nil
	clear(fr.slots) // tickets pin their connections
	fr.slots = fr.slots[:0]
	fr.outs = nil
	fr.won.Store(0)
	fr.errsBuf = [frameInline]error{}
	fr.outsBuf = [frameInline]Outcome[T]{}
	fr.pool.Put(fr)
}

// drainCompleted consumes results already delivered but not yet
// received, reporting each copy with the value no caller receives, and
// returns the updated completion count. Copies that delivered before the
// call was decided are not "cancelled" — no capacity was reclaimed from
// them — so end drains before computing the Cancelled metric; a dropped
// copy's event (Drop) is one of these, and this and release's drain are
// the only places it is ever read. Timer events are skipped.
func (fr *callFrame[K, T]) drainCompleted() int {
	for {
		select {
		case r := <-fr.results:
			if !r.timer {
				fr.completed++
				fr.copyDelivered(r.idx)
				fr.report(r, true)
			}
		default:
			return fr.completed
		}
	}
}

// reportOuts reports the successes a quorum call took into the frame's
// own outcome scratch (outcomes), which on left to the decision: without
// their values if the call returns them — the result's value, or every
// one a *QuorumError carries — and with them otherwise.
func (fr *callFrame[K, T]) reportOuts(err error) {
	_, carried := err.(*QuorumError[T])
	for _, o := range fr.outs {
		if o.Err == nil {
			fr.report(indexed[T]{val: o.Value, idx: o.Index}, !carried && (err != nil || o.Index != fr.res.Index))
		}
	}
}

// arm arms the frame's timer, at now, for the earlier of its deadlines,
// or stops it if there is none. An armed timer holds a frame reference,
// taken before the Reset and dropped again if Reset reports that the
// timer was pending, since that arming's reference carries over.
func (fr *callFrame[K, T]) arm(now time.Time) {
	at := fr.hedgeAt
	if at.IsZero() || (!fr.watchAt.IsZero() && fr.watchAt.Before(at)) {
		at = fr.watchAt
	}
	if at.IsZero() {
		fr.stopTimer()
		return
	}
	fr.refs.Add(1)
	if fr.tm == nil {
		fr.tm = fr.afterFunc(at.Sub(now), fr.timerFired)
	} else if fr.tm.Reset(at.Sub(now)) {
		fr.release(1)
	}
}

// stopTimer stops the frame's timer, reporting whether it withdrew a
// pending fire, whose reference it then drops; an event a fire already
// posted is skipped like any stale one.
func (fr *callFrame[K, T]) stopTimer() bool {
	stopped := fr.tm != nil && fr.tm.Stop()
	if stopped {
		fr.release(1)
	}
	return stopped
}

// timerEvent consumes a timer event, so the next fire may post again,
// and acts on the context watch if it is due at now: it returns the
// caller's ctx.Err() if its context has ended, or else sets ctxDone, so
// that the wait selects on the Done channel from then on.
func (fr *callFrame[K, T]) timerEvent(ctx context.Context, now time.Time) error {
	fr.timerQueued.Store(false)
	if fr.watchAt.IsZero() || now.Before(fr.watchAt) {
		return nil
	}
	fr.watchAt = time.Time{}
	if err := ctx.Err(); err != nil {
		return err
	}
	fr.ctxDone = ctx.Done()
	return nil
}

// watchCtx starts watching the caller's context, at now, for a call
// about to wait (see the file comment). It returns ctx.Done() for a
// context watched at once: one never cancelled, whose Done is nil and
// free; one already done, whose channel is made closed; and one whose
// deadline is less than watchDelay away, which the watch would see late.
// Any other context it leaves unasked, sets the frame's watch deadline
// watchDelay out and returns nil; the caller arms the timer. ctx.Err and
// ctx.Deadline allocate nothing.
func (fr *callFrame[K, T]) watchCtx(ctx context.Context, now time.Time) <-chan struct{} {
	if ctx == context.Background() || ctx == context.TODO() || ctx.Err() != nil {
		return ctx.Done()
	}
	if dl, ok := ctx.Deadline(); ok && dl.Sub(now) < watchDelay {
		return ctx.Done()
	}
	fr.watchAt = now.Add(watchDelay)
	return nil
}

// launchNext launches the next copy at now, then every following copy
// whose delay is non-positive (a zero hedge delay means full
// replication, not a timer round-trip), and sets the hedge deadline of
// the copy after them, zero if none is left or that copy launches only
// on failure; the caller arms the timer.
func (fr *callFrame[K, T]) launchNext(ctx context.Context, now time.Time) {
	fr.launchCopy(ctx, fr.launched, now)
	for fr.launched++; fr.launched < fr.n && (fr.delays == nil || fr.delays[fr.launched] <= 0); fr.launched++ {
		fr.launchCopy(ctx, fr.launched, now)
	}
	fr.hedgeAt = time.Time{}
	if fr.launched < fr.n && fr.delays[fr.launched] != launchOnFailure {
		fr.hedgeAt = now.Add(fr.delays[fr.launched])
	}
}

// begin starts a prepared call at now: it launches copy 0 and the copies
// due with it, watches the caller's context (watchCtx) and arms the
// timer. A call of quorum 0 (DoDurable's) watches nothing, because its
// caller returns once the copies are out.
func (fr *callFrame[K, T]) begin(ctx context.Context, now time.Time) {
	fr.start, fr.errs, fr.outs = now, fr.errsBuf[:0], fr.outsBuf[:0]
	if fr.collect != nil {
		*fr.collect = (*fr.collect)[:0]
	}
	fr.launchNext(ctx, now)
	if fr.quorum > 0 {
		fr.ctxDone = fr.watchCtx(ctx, now)
		fr.arm(now)
	}
}

// wait is a live call's wait loop: it hands on every event — a copy's
// completion, the timer's, the caller's cancellation once its context
// is watched — at its instant, until on decides the call. The outcome
// is then fr.res and fr.err; wait does not drop the engine's frame
// reference, so the caller must leave after it has read them.
func (fr *callFrame[K, T]) wait(ctx context.Context) {
	for {
		var ev indexed[T]
		select {
		case ev = <-fr.results:
		case <-fr.ctxDone:
			ev.cancel = true
		}
		if fr.on(ctx, ev, fr.instant(ev)) {
			return
		}
	}
}

// instant is when ev happened: the instant a copy's completion carries,
// or, for a timer or cancellation event, the clock's reading now.
func (fr *callFrame[K, T]) instant(ev indexed[T]) time.Time {
	if ev.timer || ev.cancel {
		return fr.now()
	}
	return ev.at
}

// on is the call's one transition: it applies ev at now and reports
// whether that decided the call. It never blocks and reads no clock.
// An event's instant is never earlier than the one before: a blocking
// copy reads its completion instant before it queues, so two completions
// can queue out of instant order, and on takes the later instant for both.
//
// A call's outcome is its Result — Value/Index are the first success,
// Latency is now − start at the quorum-th success, Launched the copies
// started, Cancelled the copies reclaimed in flight — or, on failure,
// the joined ReplicaErrors (quorum 1) or a *QuorumError (quorum > 1),
// or, if the caller's context ends the call, the bare ctx.Err(). A
// completion on takes is reported (report), except a success in a quorum
// call's own outcome scratch, which end reports (reportOuts).
func (fr *callFrame[K, T]) on(ctx context.Context, ev indexed[T], now time.Time) (done bool) {
	if now.Before(fr.at) {
		now = fr.at
	}
	fr.at = now
	switch {
	case ev.timer:
		// The timer fired, maybe for a deadline since moved: act on what
		// is due at now. A due watch makes the caller's cancellation
		// seen now, and from now on at once.
		if err := fr.timerEvent(ctx, now); err != nil {
			return fr.end(err)
		}
		if !fr.hedgeAt.IsZero() && !now.Before(fr.hedgeAt) {
			fr.launchNext(ctx, now)
		}
		fr.arm(now)
		return false
	case ev.cancel:
		return fr.end(ctx.Err())
	}
	fr.completed++
	fr.copyDelivered(ev.idx)
	out := fr.outcomes()
	if ev.err != nil || out != &fr.outs {
		fr.report(ev, false)
	}
	answered := ev.err == nil
	if ev.err != nil {
		negative := fr.negative != nil && errors.Is(ev.err, fr.negative)
		// Copies deliver raw errors; only one the call consumes is
		// boxed, with the replica's name.
		ev.err = ReplicaError{Name: fr.picked[ev.idx].m.name, Attempt: ev.idx, Err: ev.err}
		if negative {
			answered = true
			if fr.answer == nil {
				fr.answer = ev.err
			}
		} else {
			fr.errs = append(fr.errs, ev.err)
		}
	}
	if out != nil {
		*out = append(*out, Outcome[T]{Value: ev.val, Err: ev.err, Index: ev.idx, Latency: now.Sub(fr.start)})
	}
	if answered {
		fr.wins++
		if ev.err == nil && !fr.found {
			fr.found, fr.res.Value, fr.res.Index = true, ev.val, ev.idx
		}
		if fr.wins == fr.quorum {
			if !fr.found {
				return fr.end(errors.Join(fr.answer))
			}
			fr.res.Latency = now.Sub(fr.start)
			return fr.end(nil)
		}
	} else if len(fr.errs) > fr.n-fr.quorum {
		// Too few replicas remain for the quorum; fail now rather than
		// waiting out the stragglers.
		return fr.end(fr.failure())
	}
	if fr.completed == fr.launched && fr.launched < fr.n {
		// Every outstanding copy has completed and the call is not
		// decided (fewer than q wins, at most n-q failures, so a copy is
		// left to launch): launch it now rather than waiting out its
		// hedge delay.
		fr.launchNext(ctx, now)
		fr.arm(now)
	}
	return false
}

// outcomes is where a read's outcomes go: the caller's
// WithCollectOutcomes sink, or, for a quorum call, the frame's scratch
// its failure clones the partial outcomes from — not collect, which
// would keep the call from settling (settled) — and nil for neither.
func (fr *callFrame[K, T]) outcomes() *[]Outcome[T] {
	if fr.collect == nil && fr.quorum > 1 {
		return &fr.outs
	}
	return fr.collect
}

// end decides the call with err and reclaims what it left in flight: the
// armed timer, the blocking copies (through their shared context) and
// the started copies, each withdrawn through its Starter. The result
// counts the copies launched and, as cancelled, those still out once the
// completions already queued are drained, failed or not: governors and
// observers need the real fan-out and the copies reclaimed in flight. A
// withdrawn copy is reclaimed capacity — counted on its member like a
// blocking copy that honored its cancellation, and reported with
// context.Canceled — and its frame reference is dropped here because
// its Complete will never run; one whose Cancel reports false (a
// write's, always) has a completion on its way, which reports and
// releases as usual.
func (fr *callFrame[K, T]) end(err error) bool {
	fr.stopTimer()
	fr.hedgeAt, fr.watchAt, fr.err = time.Time{}, time.Time{}, err
	if err != nil {
		fr.res = Result[T]{}
	}
	if fr.collect == nil && fr.quorum > 1 {
		fr.reportOuts(err)
	}
	fr.res.Launched, fr.res.Cancelled = fr.launched, fr.launched-fr.drainCompleted()
	if fr.cdone != nil {
		close(fr.cdone)
		fr.cdone = nil
	}
	for i := range fr.slots {
		s := &fr.slots[i]
		if !s.out {
			continue
		}
		s.out = false
		m := fr.picked[i].m
		if m.starter.Cancel(s.ticket) {
			m.cancelled.Add(1)
			if fr.gov != nil {
				fr.gov.copyDone()
			}
			fr.report(indexed[T]{idx: i, err: context.Canceled}, false)
			fr.release(1)
		}
	}
	return true
}

// failure is a failed read's error: for quorum 1 the joined
// ReplicaErrors, for larger quorums a *QuorumError carrying the partial
// outcomes, cloned: the error may outlive the caller's sink (which a
// retry through the same WithCollectOutcomes resets and refills) and the
// frame's inline scratch (which recycles with the frame).
func (fr *callFrame[K, T]) failure() error {
	joined := errors.Join(fr.errs...)
	if fr.quorum == 1 {
		return joined
	}
	outs := append([]Outcome[T](nil), *fr.outcomes()...)
	return &QuorumError[T]{Need: fr.quorum, Wins: fr.wins, Outcomes: outs, Err: joined}
}
