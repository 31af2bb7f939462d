package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Selection is a replica-selection strategy.
type Selection int

const (
	// SelectRanked picks the k replicas with the lowest observed
	// exponentially-weighted mean latency — the paper's DNS strategy
	// ("querying anywhere from 1 to 10 of the best servers in parallel").
	// Unprobed replicas rank first so every replica gets measured.
	SelectRanked Selection = iota
	// SelectRandom picks k distinct replicas uniformly at random — the
	// queueing model's strategy, which spreads replicated load evenly.
	SelectRandom
	// SelectRoundRobin rotates through replicas in order.
	SelectRoundRobin
)

func (s Selection) String() string {
	switch s {
	case SelectRanked:
		return "ranked"
	case SelectRandom:
		return "random"
	case SelectRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// ArgReplica is a replica that receives a per-call argument along with the
// context — e.g. the key of a replicated KV read, or the question of a DNS
// lookup. See KeyedGroup.
type ArgReplica[K, T any] func(ctx context.Context, arg K) (T, error)

// KeyedGroup is the copy-on-write replica-set engine. Membership and
// strategy live in an immutable snapshot behind an atomic pointer, and
// each replica's latency statistics are a lock-free digest (EWMA mean
// plus log-scale histogram), so the Do hot path — snapshot read, replica
// selection, schedule computation, latency observation — never takes a
// lock and never contends with other callers. Writers (Add, Remove,
// SetStrategy) serialize among themselves and publish a new snapshot;
// operations already in flight keep the snapshot they started with.
//
// The type parameter K is the per-call argument replicas receive, which is
// what makes one engine reusable across keyed workloads (a replicated
// memcached client passes the key; a DNS resolver passes the question)
// without smuggling arguments through context values. For operations that
// need no argument, use Group.
//
// All methods are safe for concurrent use.
type KeyedGroup[K, T any] struct {
	groupConfig
	state atomic.Pointer[groupState[K, T]]
	seq   atomic.Uint64 // per-Do position in the random-selection stream
	rr    atomic.Uint64 // round-robin cursor
	mu    sync.Mutex    // serializes writers; readers never take it
	// frames recycles callFrames across this group's calls. A frame
	// reaches the pool only via callFrame.release's proved-drained path,
	// so pooled frames are always quiescent.
	frames sync.Pool
	// done is the per-copy hook and own the argument owner, set by
	// NewReportingKeyedGroup; every frame of the group carries both.
	done func(CopyDone[K, T])
	own  func(K) K
}

// getFrame returns a quiescent call frame holding the engine's reference.
func (g *KeyedGroup[K, T]) getFrame() *callFrame[K, T] {
	fr, _ := g.frames.Get().(*callFrame[K, T])
	if fr == nil {
		fr = &callFrame[K, T]{pool: &g.frames, done: g.done, own: g.own}
		fr.results = make(chan indexed[T], frameChanCap)
		fr.slots = fr.slotsBuf[:0]
	}
	fr.refs.Store(1)
	return fr
}

// groupState is one immutable membership snapshot. The slice and the
// strategy are never mutated after publication; member latency state is
// updated through atomics, so members are shared across snapshots and a
// digest survives unrelated membership changes.
type groupState[K, T any] struct {
	strategy Strategy
	members  []*member[K, T]
}

type member[K, T any] struct {
	name string
	// fn is the replica as registered; every blocking copy goes through
	// run.
	fn ArgReplica[K, T]
	// starter, when the member was registered with AddStarter, launches
	// the copies of a multi-copy call without blocking (see Starter).
	starter Starter[K, T]
	lat     LatDigest
	// cancelled counts this replica's copies that observed their
	// context's cancellation and returned its error, or that the engine
	// withdrew from the starter — copies the engine or the caller
	// reclaimed, kept separate from real failures.
	cancelled atomic.Int64
	// dropped counts this replica's started copies that succeeded after
	// their call was settled and completed without their value being
	// decoded (Sink.Drop): losers that answered, as cancelled counts
	// losers that were withdrawn before they could.
	dropped atomic.Int64
}

// run performs one copy against the replica and returns how long it
// took: it accounts the copy against gov (nil for none) while it is in
// flight, folds a successful copy's latency into the digest, and counts
// a copy that honored its context's cancellation. One clock pair serves
// the digest and, for a call run inline, Result.Latency.
func (m *member[K, T]) run(ctx context.Context, arg K, gov *Governor) (T, time.Duration, error) {
	if gov != nil {
		gov.copyStarted()
		defer gov.copyDone()
	}
	t0 := time.Now()
	v, err := m.fn(ctx, arg)
	d := time.Since(t0)
	if err == nil {
		m.lat.observe(float64(d))
	} else if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		// The copy was cancelled and honored it: reclaimed work, not a
		// replica failure.
		m.cancelled.Add(1)
	}
	return v, d, err
}

// Handle is an opaque reference to one registered replica, for callers
// that route among replicas themselves instead of using the group's
// Selection — internal/ring resolves a key's primary and successors on a
// consistent-hash ring into Handles once per topology change, then passes
// them to DoPicked on every call. A Handle obtained from Add or Lookup
// stays usable after its replica is removed from the group: calls through
// a stale handle still reach the replica and fold into its digest, the
// same grace period the copy-on-write snapshot gives operations already
// in flight. The zero Handle is invalid.
type Handle[K, T any] struct{ m *member[K, T] }

// Name returns the replica's registration name ("" for the zero Handle).
func (h Handle[K, T]) Name() string {
	if h.m == nil {
		return ""
	}
	return h.m.name
}

// groupConfig is what a GroupOption sets: the construction-time settings
// every group shares, whatever its argument and result types.
type groupConfig struct {
	observer Observer
	seed     uint64
}

// GroupOption configures a Group or a KeyedGroup at construction.
type GroupOption func(*groupConfig)

// WithObserver attaches an Observer for per-operation metrics.
func WithObserver(o Observer) GroupOption {
	return func(c *groupConfig) { c.observer = o }
}

// WithSeed fixes the seed of the group's random selection, for
// reproducible tests and simulations.
func WithSeed(seed int64) GroupOption {
	return func(c *groupConfig) { c.seed = uint64(seed) }
}

// NewStrategyKeyedGroup creates a KeyedGroup with the given strategy
// (nil means Fixed{Copies: 1}).
func NewStrategyKeyedGroup[K, T any](s Strategy, opts ...GroupOption) *KeyedGroup[K, T] {
	g := &KeyedGroup[K, T]{}
	g.init(s, opts)
	return g
}

func (g *KeyedGroup[K, T]) init(s Strategy, opts []GroupOption) {
	if s == nil {
		s = Fixed{Copies: 1}
	}
	g.seed = uint64(time.Now().UnixNano())
	for _, o := range opts {
		o(&g.groupConfig)
	}
	g.state.Store(&groupState[K, T]{strategy: s})
}

// Add registers a replica under a diagnostic name and returns its
// Handle, for callers that route calls to explicit replica subsets with
// DoPicked (everyone else can ignore the return value).
func (g *KeyedGroup[K, T]) Add(name string, fn ArgReplica[K, T]) Handle[K, T] {
	return g.AddStarter(name, fn, nil)
}

// AddStarter is Add for a replica that also has a non-blocking form: a
// call launches this member's copy with starter.Start on the caller's
// goroutine and takes its completion in its transition (see Starter for
// the contract), while everything that runs a copy to completion where
// it stands — a failover behind a function replica in a call run inline,
// ProbeAll, and a copy whose Start declined — still calls fn. fn and
// starter must perform the same operation.
func (g *KeyedGroup[K, T]) AddStarter(name string, fn ArgReplica[K, T], starter Starter[K, T]) Handle[K, T] {
	m := &member[K, T]{name: name, fn: fn, starter: starter}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state.Load()
	members := make([]*member[K, T], len(st.members)+1)
	copy(members, st.members)
	members[len(st.members)] = m
	g.state.Store(&groupState[K, T]{strategy: st.strategy, members: members})
	return Handle[K, T]{m: m}
}

// Lookup returns the Handle of the first replica registered under name,
// and whether one exists.
func (g *KeyedGroup[K, T]) Lookup(name string) (Handle[K, T], bool) {
	for _, m := range g.state.Load().members {
		if m.name == name {
			return Handle[K, T]{m: m}, true
		}
	}
	return Handle[K, T]{}, false
}

// Remove drops the first replica registered under name and reports whether
// one was found. Operations already in flight keep the snapshot they
// started with — they may still complete against the removed replica — but
// no subsequent operation selects it.
func (g *KeyedGroup[K, T]) Remove(name string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state.Load()
	for i, m := range st.members {
		if m.name == name {
			members := make([]*member[K, T], 0, len(st.members)-1)
			members = append(members, st.members[:i]...)
			members = append(members, st.members[i+1:]...)
			g.state.Store(&groupState[K, T]{strategy: st.strategy, members: members})
			return true
		}
	}
	return false
}

// SetStrategy replaces the group's replication strategy through the
// copy-on-write snapshot: operations already in flight finish under the
// strategy they started with, and every subsequent operation sees the
// new strategy with a consistent membership view.
func (g *KeyedGroup[K, T]) SetStrategy(s Strategy) {
	if s == nil {
		s = Fixed{Copies: 1}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state.Load()
	g.state.Store(&groupState[K, T]{strategy: s, members: st.members})
}

// Strategy returns the current replication strategy.
func (g *KeyedGroup[K, T]) Strategy() Strategy { return g.state.Load().strategy }

// Len returns the number of registered replicas.
func (g *KeyedGroup[K, T]) Len() int { return len(g.state.Load().members) }

// Names returns the replica names in registration order.
func (g *KeyedGroup[K, T]) Names() []string {
	members := g.state.Load().members
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.name
	}
	return out
}

// RankedNames returns the replica names in the order SelectRanked picks
// them: unprobed replicas first, then fastest estimated latency first,
// ties in registration order.
func (g *KeyedGroup[K, T]) RankedNames() []string {
	st := g.state.Load()
	picked := make([]Handle[K, T], len(st.members))
	g.pickInto(st, SelectRanked, picked)
	names := make([]string, len(picked))
	for i, h := range picked {
		names[i] = h.m.name
	}
	return names
}

// EstimatedLatency returns the current latency estimate for a replica and
// whether it has been observed at all.
func (g *KeyedGroup[K, T]) EstimatedLatency(name string) (time.Duration, bool) {
	if h, ok := g.Lookup(name); ok {
		return h.m.lat.Mean()
	}
	return 0, false
}

// Digest returns the latency digest of the replica registered under name
// (mean, quantiles, observation count), or nil if no such replica.
func (g *KeyedGroup[K, T]) Digest(name string) *LatDigest {
	if h, ok := g.Lookup(name); ok {
		return &h.m.lat
	}
	return nil
}

// ReplicaStats describes one replica in a Stats snapshot.
type ReplicaStats struct {
	// Name is the replica's registration name.
	Name string
	// EstimatedLatency is the EWMA of successful-call latencies (zero if
	// unobserved).
	EstimatedLatency time.Duration
	// Observed reports whether any successful call has been recorded.
	Observed bool
	// Observations counts the successful calls folded into the digest.
	Observations int64
	// Cancelled counts this replica's copies cancelled in flight (losing
	// copies that honored their derived context), separate from failures.
	Cancelled int64
	// Dropped counts this replica's successful replies that arrived after
	// their call was already decided and were discarded undecoded by the
	// replica's Starter (see Sink.Drop). Cancelled + Dropped is the losers
	// that cost the client nothing; a loser in neither was decoded, and
	// its value, which no caller receives, went with its report to the
	// group's per-copy hook (NewReportingKeyedGroup) if it has one.
	Dropped int64
	// P50, P95, P99 are latency-quantile estimates from the replica's
	// digest (zero if unobserved).
	P50, P95, P99 time.Duration
}

// GroupStats is a point-in-time view of a group. Strategy and membership
// come from a single atomic snapshot, so they are mutually consistent even
// while other goroutines Add, Remove, or SetStrategy.
type GroupStats struct {
	// Strategy describes the active strategy (its String()), making
	// Stats() output self-describing.
	Strategy string
	// Replicas holds per-replica latency statistics.
	Replicas []ReplicaStats
}

var statsQuantiles = []float64{0.5, 0.95, 0.99}

// Stats returns a consistent snapshot of the group's strategy,
// membership, and per-replica latency digests.
func (g *KeyedGroup[K, T]) Stats() GroupStats {
	st := g.state.Load()
	s := GroupStats{
		Strategy: st.strategy.String(),
		Replicas: make([]ReplicaStats, len(st.members)),
	}
	var qs [3]time.Duration
	for i, m := range st.members {
		v, ok := m.lat.value()
		m.lat.Quantiles(statsQuantiles, qs[:])
		s.Replicas[i] = ReplicaStats{
			Name:             m.name,
			EstimatedLatency: time.Duration(v),
			Observed:         ok,
			Observations:     m.lat.Count(),
			Cancelled:        m.cancelled.Load(),
			Dropped:          m.dropped.Load(),
			P50:              qs[0],
			P95:              qs[1],
			P99:              qs[2],
		}
	}
	return s
}

// Do performs one redundant operation under the group's strategy, passing
// arg to every launched replica. Per-call options compose over the
// group's snapshot without touching shared state: WithQuorum completes
// only after q successes, WithStrategyOverride swaps the strategy for
// this call only, WithFanoutCap bounds the copies, WithLabel tags the
// Observation, and WithCollectOutcomes gathers per-copy detail. A call
// with no options runs the group's strategy with first-response-wins
// semantics and pays nothing for the option machinery.
//
// A call with one copy on its schedule whose primary is a function
// replica runs it on the caller's goroutine under ctx itself, then, while
// the copies run so far have failed, each copy the governor withheld
// (see call.go's file comment for the contract). Any other call runs in
// a call frame: each copy is a request started through its member's
// Starter and withdrawn when the call completes, or, for a function
// replica, a goroutine under a derived context cancelled then. Such a
// call watches ctx from 1ms on: a cancellation or deadline
// inside the first millisecond ends it at 1ms with ctx.Err(), and a copy
// that completes first may still win; a context never cancelled, or
// whose deadline is less than 1ms away, is watched at once.
func (g *KeyedGroup[K, T]) Do(ctx context.Context, arg K, opts ...CallOption) (Result[T], error) {
	var zero Result[T]
	st := g.state.Load()
	n := len(st.members)
	if n == 0 {
		return zero, ErrNoReplicas
	}
	p, err := g.plan(st, opts, n, n)
	if err != nil {
		return zero, err
	}
	var buf [frameInline]Handle[K, T]
	var picked []Handle[K, T]
	if p.k <= frameInline {
		picked = buf[:p.k]
	} else {
		picked = make([]Handle[K, T], p.k)
	}
	g.pickInto(st, p.sel, picked)
	return g.run(ctx, arg, &p, picked)
}

// DoPicked performs one redundant operation over an explicit, ordered
// replica subset instead of the group's Selection: picked[0] launches
// first (the primary), picked[1] is the first hedge or quorum peer, and
// so on. The group's strategy — or a WithStrategyOverride — still
// decides fan-out and launch schedule; a fan-out of k uses the first k
// handles, and every per-call option, the governor, and the observer
// compose exactly as in Do. This is the routing primitive
// behind internal/ring: the ring maps a key to its primary and
// successors on a consistent-hash ring and delegates the call itself
// here, so sharded routing reuses the whole engine instead of
// reimplementing it.
//
// The quorum, if any, is taken within the subset (a quorum larger than
// len(picked) fails with ErrQuorumUnreachable), and a governor attached
// to the strategy still normalizes its utilization by the full group
// size — the subset is one key's placement, not the system's capacity.
// ctx is watched as in Do, from 1ms on once the call runs in a frame.
// The slice is read for the duration of the call and must not be
// modified until it returns; a zero Handle in it is an error.
func (g *KeyedGroup[K, T]) DoPicked(ctx context.Context, arg K, picked []Handle[K, T], opts ...CallOption) (Result[T], error) {
	p, err := g.planPicked(picked, opts)
	if err != nil {
		return Result[T]{}, err
	}
	return g.run(ctx, arg, &p, picked[:p.k])
}

// planPicked plans one call over picked (DoPicked, StepPicked).
func (g *KeyedGroup[K, T]) planPicked(picked []Handle[K, T], opts []CallOption) (callPlan[T], error) {
	n := len(picked)
	if n == 0 {
		return callPlan[T]{}, ErrNoReplicas
	}
	for _, h := range picked {
		if h.m == nil {
			return callPlan[T]{}, errors.New("redundancy: zero Handle")
		}
	}
	st := g.state.Load()
	// The governor's utilization unit is in-flight copies per replica of
	// the whole set; stale handles may briefly exceed the group size.
	return g.plan(st, opts, n, max(len(st.members), n))
}

// CopyDone is one launched copy's outcome as its group's per-copy hook
// sees it (NewReportingKeyedGroup): the call's argument (own's form of it
// once the caller has returned, if the group owns arguments), the copy's
// value if it is a success that no caller receives (zero otherwise), the
// copy's member name, and its error: nil for a success, a dropped copy's
// (Sink.Drop) included, and context.Canceled for a copy withdrawn in
// flight.
type CopyDone[K, T any] struct {
	Arg     K
	Value   T
	Replica string
	Err     error
}

// NewReportingKeyedGroup creates a KeyedGroup, as NewStrategyKeyedGroup
// does, whose every launched copy reports to done exactly once: on the
// caller's goroutine for a copy whose outcome its call takes or drains,
// or reclaims, before the caller returns, and on whichever goroutine
// drops the call's last frame reference for a straggler that completes
// after. done must not block. A value that no caller receives — a loser
// decoded after its call was decided, or a quorum call's success it took
// but does not return — rides in its report, so a caller whose values
// are pooled buffers gives them back there: nobody else holds them.
//
// own, if non-nil, returns an argument with whatever it borrows from its
// caller copied. A call runs it at most once, when something may read
// the argument after the caller returned: a copy still out at the return,
// whose report carries own's form, or a blocking copy's goroutine.
func NewReportingKeyedGroup[K, T any](s Strategy, own func(K) K, done func(CopyDone[K, T]), opts ...GroupOption) *KeyedGroup[K, T] {
	g := NewStrategyKeyedGroup[K, T](s, opts...)
	g.own, g.done = own, done
	return g
}

// DoDurable performs one replicated write over picked: a call that
// launches every copy at once, started where its member has a Starter
// (a single copy too), and that no governor sheds — gov, if non-nil,
// takes the call's utilization sample and brackets every copy. That the
// write withdraws nothing is its Starters' to decide: a Starter whose
// Cancel refuses keeps its copy out after the decision, and a blocking
// replica that must outlive its caller detaches its context itself. It
// returns nil once q succeeded (q is clamped to [0, len(picked)]; 0
// returns once the copies are out), a *QuorumError as soon as too few
// can, or ctx's error; the copies still out run on and report to the
// group's per-copy hook. ctx is watched from 1ms on, as in Do. It takes
// no per-call options and makes no Observation.
func (g *KeyedGroup[K, T]) DoDurable(ctx context.Context, arg K, picked []Handle[K, T], q int, gov *Governor) error {
	n := len(picked)
	if n == 0 {
		return ErrNoReplicas
	}
	if gov != nil {
		gov.sample(max(len(g.state.Load().members), n))
	}
	p := callPlan[T]{isFixed: true, gov: gov, q: min(max(q, 0), n), launch: n}
	fr := g.frameFor(arg, &p, picked)
	fr.begin(ctx, fr.now())
	if p.q > 0 {
		fr.wait(ctx)
	} else {
		fr.end(nil)
	}
	err := fr.err
	if err != nil && p.q == 1 && err != ctx.Err() {
		err = &QuorumError[T]{Need: 1, Err: err}
	}
	fr.leave()
	return err
}

// callPlan is one call's resolved configuration, shared by Do (which
// then picks replicas by Selection over the whole group) and DoPicked
// (which receives an explicitly routed subset).
type callPlan[T any] struct {
	strat   Strategy
	fixed   Fixed
	isFixed bool
	gov     *Governor
	collect *[]Outcome[T]
	label   string
	// negative is the WithNegativeAnswer sentinel, nil if none.
	negative error
	// q is the quorum and k the copies the call may launch. launch is
	// how many of them are on the schedule; the governor withheld the
	// rest, which launch only as failovers (launchOnFailure).
	q, k, launch int
	sel          Selection
}

// plan resolves the strategy, options, quorum, and fan-out for one call.
// n is the number of eligible replicas (the group size for Do, the
// subset size for DoPicked); capacity is the replica count the governor
// normalizes utilization by.
func (g *KeyedGroup[K, T]) plan(st *groupState[K, T], opts []CallOption, n, capacity int) (callPlan[T], error) {
	var p callPlan[T]
	co := mergeOptions(opts)
	p.strat = st.strategy
	if co.strategy != nil {
		p.strat = co.strategy
	}
	// A governed strategy carries a Governor: feed it one utilization
	// sample per operation (in-flight copies per replica, the offered
	// load including redundancy) before Fanout consults its EWMA, and
	// account this call's copies against it in launch.
	if p.gov = GovernorOf(p.strat); p.gov != nil {
		p.gov.sample(capacity)
	}
	if co.outcomes != nil {
		c, ok := co.outcomes.(*[]Outcome[T])
		if !ok {
			return p, fmt.Errorf("redundancy: WithCollectOutcomes sink is %T; this group collects []Outcome with its own result type", co.outcomes)
		}
		p.collect = c
	}
	p.label = co.label
	p.negative = co.negative
	p.q = co.quorum
	if p.q < 1 {
		p.q = 1
	}
	if p.q > n {
		return p, fmt.Errorf("redundancy: quorum %d of %d replicas: %w", p.q, n, ErrQuorumUnreachable)
	}
	// The built-in static strategies are fast-pathed by concrete type so
	// the common case pays no interface dispatch and no Digests view.
	p.fixed, p.isFixed = p.strat.(Fixed)
	var k int
	if p.isFixed {
		k, p.sel = p.fixed.Fanout()
	} else {
		k, p.sel = p.strat.Fanout()
	}
	if co.fanoutCap > 0 && k > co.fanoutCap {
		k = co.fanoutCap
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	p.launch = k
	if p.gov != nil {
		// Gate against the clamped fan-out so "all replicas" strategies
		// shed from the real set size. A copy the governor withholds is
		// not dropped: it stays in the call as a failover, launched only
		// if every copy out has failed, which costs the load nothing
		// while the copies sent succeed. The quorum raise below outranks
		// the governor: quorum copies are correctness requirements, not
		// shed-able hedges.
		p.launch = p.gov.Allow(k)
	}
	// A quorum needs at least q copies; the requirement outranks the
	// strategy's fan-out, WithFanoutCap and the governor (q <= n was
	// checked).
	p.k, p.launch = max(k, p.q), max(p.launch, p.q)
	return p, nil
}

// settle reports one call to the group's observer on every return path,
// success or failure, exactly once. winner names the replica at
// res.Index; a failed call reports none.
func (g *KeyedGroup[K, T]) settle(p *callPlan[T], winner string, res *Result[T], err error) {
	if g.observer != nil {
		if err != nil {
			winner = ""
		}
		g.observer.Observe(Observation{
			Winner:    winner,
			Launched:  res.Launched,
			Cancelled: res.Cancelled,
			Latency:   res.Latency,
			Err:       err,
			Label:     p.label,
		})
	}
}

// run executes a planned call over picked (its p.k copies in launch
// order, read only until run returns). A call with one copy on its
// schedule whose primary is a function replica runs inline (runOne);
// every other call runs in a call frame (launchFrame).
func (g *KeyedGroup[K, T]) run(ctx context.Context, arg K, p *callPlan[T], picked []Handle[K, T]) (Result[T], error) {
	if p.launch == 1 && picked[0].m.starter == nil {
		return g.runOne(ctx, arg, p, picked)
	}
	return g.launchFrame(ctx, arg, p, picked)
}

// runOne executes a planned call with one copy on its schedule over
// function replicas as plain calls on the caller's goroutine, under the
// caller's own context: no frame, no channel, no derived context, no
// goroutine (see call.go's file comment for the contract this implies).
// It runs picked[0] and, while the copies run so far have failed and the
// call is undecided, the next copy the governor withheld: the failover
// a frame makes, made in order. Such a plan has quorum 1. Latency is
// the sum of the copies' run times, measured by the clock pair each
// copy's run reads anyway. Each copy reports as it returns, never with
// its value: a success is the caller's.
func (g *KeyedGroup[K, T]) runOne(ctx context.Context, arg K, p *callPlan[T], picked []Handle[K, T]) (Result[T], error) {
	if p.collect != nil {
		*p.collect = (*p.collect)[:0]
	}
	var (
		res     Result[T]
		errs    []error
		elapsed time.Duration
	)
	for i, h := range picked {
		v, d, err := h.m.run(ctx, arg, p.gov)
		elapsed += d
		res.Launched = i + 1
		if g.done != nil {
			g.done(CopyDone[K, T]{Arg: arg, Replica: h.m.name, Err: err})
		}
		if err == nil {
			res.Value, res.Index, res.Latency = v, i, elapsed
			if p.collect != nil {
				*p.collect = append(*p.collect, Outcome[T]{Value: v, Index: i, Latency: elapsed})
			}
			g.settle(p, h.m.name, &res, nil)
			return res, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller gave up: the bare ctx.Err(), and the copy out
			// counts as cancelled, uncollected.
			res.Cancelled = 1
			g.settle(p, "", &res, cerr)
			return res, cerr
		}
		negative := p.negative != nil && errors.Is(err, p.negative)
		err = ReplicaError{Name: h.m.name, Attempt: i, Err: err}
		if p.collect != nil {
			*p.collect = append(*p.collect, Outcome[T]{Value: v, Err: err, Index: i, Latency: elapsed})
		}
		if negative {
			// A negative answer decides the call: no failover.
			errs = append(errs[:0], err)
			break
		}
		errs = append(errs, err)
	}
	err := errors.Join(errs...)
	g.settle(p, "", &res, err)
	return res, err
}

// launchFrame executes one planned call in a call frame over picked:
// launch schedule, the call engine itself, and the settlement. The
// handles are copied into the frame, because the engine (and losing
// copies) may read them after the call returns, and the caller's slice
// is only promised stable until then.
func (g *KeyedGroup[K, T]) launchFrame(ctx context.Context, arg K, p *callPlan[T], picked []Handle[K, T]) (Result[T], error) {
	fr := g.frameFor(arg, p, picked)
	fr.begin(ctx, fr.now())
	fr.wait(ctx)
	res, err := fr.res, fr.err
	g.settle(p, fr.picked[res.Index].m.name, &res, err)
	fr.leave()
	return res, err
}

// frameFor prepares a frame for one planned call over picked: the plan
// fields and the launch schedule, ready to begin.
func (g *KeyedGroup[K, T]) frameFor(arg K, p *callPlan[T], picked []Handle[K, T]) *callFrame[K, T] {
	fr := g.getFrame()
	copies := copy(fr.pickedSlice(len(picked)), picked)
	fr.n = copies
	fr.quorum = p.q
	fr.arg = arg
	fr.gov = p.gov
	fr.collect = p.collect
	fr.negative = p.negative
	fr.ensureChan(copies)
	fr.delays = g.scheduleInto(p, fr)
	return fr
}

// scheduleInto resolves one call's launch schedule into the frame's
// schedule buffer: the Fixed fast path, the strategy's ScheduleInto over
// the frame's digests view, the quorum rule that the first q copies
// always launch immediately, and the governor's rule that the copies it
// withheld launch only on failure (launchOnFailure), which arms no hedge
// for them. The returned schedule is always backed by the frame's
// buffer — never strategy-owned memory — so the quorum zeroing mutates
// in place without cloning. nil means launch every copy at once.
func (g *KeyedGroup[K, T]) scheduleInto(p *callPlan[T], fr *callFrame[K, T]) []time.Duration {
	buf := fr.delaysSlice(fr.n)
	var delays []time.Duration
	if p.isFixed {
		if p.fixed.HedgeDelay > 0 {
			delays = buf
			for i := range delays {
				delays[i] = p.fixed.HedgeDelay
			}
		}
	} else if _, full := p.strat.(FullReplicate); !full {
		delays = strategyScheduleInto(p.strat, fr, buf)
	}
	if p.q > 1 && delays != nil {
		// The quorum copies are correctness requirements, not latency
		// hedges: delaying them can only serialize the quorum. Launch the
		// first q immediately; copies beyond the quorum keep the
		// strategy's hedge schedule.
		clear(delays[:p.q])
	}
	if p.launch < fr.n {
		if delays == nil {
			delays = buf
			clear(delays[:p.launch])
		}
		for i := p.launch; i < fr.n; i++ {
			delays[i] = launchOnFailure
		}
	}
	return delays
}

// ProbeAll runs every replica once with arg, concurrently and to
// completion (no racing, no cancellation on first response), recording
// each successful replica's latency for ranked selection and for the
// per-replica digests adaptive strategies consult. It mirrors the
// measurement stage of the paper's DNS experiment, which ranks all servers
// by mean response time before replicating to the best k. It returns the
// number of replicas that responded successfully.
//
// Use it to warm a ranked or adaptive group: racing alone cannot measure
// losers, because their contexts are cancelled as soon as the winner
// returns.
func (g *KeyedGroup[K, T]) ProbeAll(ctx context.Context, arg K) int {
	members := g.state.Load().members
	ch := make(chan error, len(members))
	for _, m := range members {
		m := m
		go func() {
			_, _, err := m.run(ctx, arg, nil)
			ch <- err
		}()
	}
	ok := 0
	for range members {
		if err := <-ch; err == nil {
			ok++
		}
	}
	return ok
}

// pickInto fills out (len k <= len members) with the given selection, in
// launch order, without locking.
func (g *KeyedGroup[K, T]) pickInto(st *groupState[K, T], sel Selection, out []Handle[K, T]) {
	members := st.members
	n := len(members)
	k := len(out)
	switch sel {
	case SelectRandom:
		rng := splitmix{s: g.seed ^ g.seq.Add(1)*0x9e3779b97f4a7c15}
		if 2*k > n {
			// Dense pick: partial Fisher-Yates over a scratch copy. The
			// scratch stays on the stack for typical group sizes.
			var tbuf [16]*member[K, T]
			var tmp []*member[K, T]
			if n <= len(tbuf) {
				tmp = tbuf[:n]
			} else {
				tmp = make([]*member[K, T], n)
			}
			copy(tmp, members)
			for i := 0; i < k; i++ {
				j := i + rng.intn(n-i)
				tmp[i], tmp[j] = tmp[j], tmp[i]
			}
			for i := range out {
				out[i] = Handle[K, T]{m: tmp[i]}
			}
			return
		}
		// Sparse pick: rejection sampling, k << n.
		for i := 0; i < k; i++ {
		retry:
			m := members[rng.intn(n)]
			for j := 0; j < i; j++ {
				if out[j].m == m {
					goto retry
				}
			}
			out[i] = Handle[K, T]{m: m}
		}
	case SelectRoundRobin:
		start := int((g.rr.Add(uint64(k)) - uint64(k)) % uint64(n))
		for i := range out {
			out[i] = Handle[K, T]{m: members[(start+i)%n]}
		}
	default: // SelectRanked
		// Partial selection: keep out[:cnt] sorted by key (unprobed first,
		// then fastest, ties by registration order). One pass, no full
		// sort, and the key scratch stays on the stack for k <= 4.
		var vbuf [frameInline]float64
		var vals []float64
		if k <= len(vbuf) {
			vals = vbuf[:k]
		} else {
			vals = make([]float64, k)
		}
		cnt := 0
		for _, m := range members {
			key, ok := m.lat.value()
			if !ok {
				key = -1 // unprobed sorts before any real estimate
			}
			if cnt < k {
				i := cnt
				for i > 0 && vals[i-1] > key {
					vals[i], out[i] = vals[i-1], out[i-1]
					i--
				}
				vals[i], out[i] = key, Handle[K, T]{m: m}
				cnt++
			} else if key < vals[k-1] {
				i := k - 1
				for i > 0 && vals[i-1] > key {
					vals[i], out[i] = vals[i-1], out[i-1]
					i--
				}
				vals[i], out[i] = key, Handle[K, T]{m: m}
			}
		}
	}
}

// Group manages a set of named replicas for repeated redundant operations,
// tracking per-replica latency so ranked selection can prefer the fastest.
// It is the argument-free specialization of KeyedGroup and shares its
// lock-free copy-on-write engine; replicas may be added and removed while
// operations are in flight. All methods are safe for concurrent use.
type Group[T any] struct {
	KeyedGroup[struct{}, T]
}

// NewStrategyGroup creates a Group with the given strategy (nil means
// Fixed{Copies: 1}).
func NewStrategyGroup[T any](s Strategy, opts ...GroupOption) *Group[T] {
	g := &Group[T]{}
	g.init(s, opts)
	return g
}

// Add registers a replica under a diagnostic name and returns its Handle
// (see KeyedGroup.Add).
func (g *Group[T]) Add(name string, fn Replica[T]) Handle[struct{}, T] {
	return g.KeyedGroup.Add(name, func(ctx context.Context, _ struct{}) (T, error) { return fn(ctx) })
}

// Do performs one redundant operation under the group's strategy,
// customized by any per-call options. See KeyedGroup.Do.
func (g *Group[T]) Do(ctx context.Context, opts ...CallOption) (Result[T], error) {
	return g.KeyedGroup.Do(ctx, struct{}{}, opts...)
}

// DoValue is Do with no per-call options, returning only the winner's
// value.
func (g *Group[T]) DoValue(ctx context.Context) (T, error) {
	res, err := g.Do(ctx)
	return res.Value, err
}

// ProbeAll runs every replica once, concurrently and to completion,
// recording each successful replica's latency for ranked selection. See
// KeyedGroup.ProbeAll.
func (g *Group[T]) ProbeAll(ctx context.Context) int {
	return g.KeyedGroup.ProbeAll(ctx, struct{}{})
}

// splitmix is splitmix64: a tiny PRNG whose whole state is one word, so
// each Do can derive an independent, deterministic stream from the group
// seed and an atomic sequence number instead of locking a shared source.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
