package core

// CallOption customizes a single Group.Do or KeyedGroup.Do operation,
// composing over the group's installed strategy without touching shared
// state: one latency-critical request can raise its quorum, override the
// hedging strategy, cap its fan-out, or label itself for per-class
// metrics while every other caller of the same group is unaffected.
//
// A CallOption is a value: each With* sets one field, and a call merges
// its options in order, the last to set a field winning. The zero
// CallOption sets nothing. Passing options allocates nothing.
type CallOption struct {
	set       optField // the one field this option sets
	quorum    int
	fanoutCap int
	label     string
	strategy  Strategy
	outcomes  any // *[]Outcome[T]; type-checked against the group's T in plan
	negative  error
}

// optField names the field a CallOption sets.
type optField uint8

const (
	optQuorum optField = iota + 1
	optFanoutCap
	optLabel
	optStrategy
	optOutcomes
	optNegative
)

// mergeOptions folds opts in order into one CallOption holding every
// field some option set, the last to set a field winning.
func mergeOptions(opts []CallOption) (c CallOption) {
	for _, o := range opts {
		switch o.set {
		case optQuorum:
			c.quorum = o.quorum
		case optFanoutCap:
			c.fanoutCap = o.fanoutCap
		case optLabel:
			c.label = o.label
		case optStrategy:
			c.strategy = o.strategy
		case optOutcomes:
			c.outcomes = o.outcomes
		case optNegative:
			c.negative = o.negative
		}
	}
	return c
}

// QuorumOf reports the quorum that opts ask for (0 when none does) and
// the outcome collector they carry, if its element type is Outcome[T].
// It lets a caller that builds its own call on top of a group's — a
// version-comparing quorum read, say — see the two options it must
// honour itself. It allocates nothing.
func QuorumOf[T any](opts []CallOption) (q int, collect *[]Outcome[T]) {
	c := mergeOptions(opts)
	collect, _ = c.outcomes.(*[]Outcome[T])
	return c.quorum, collect
}

// WithQuorum completes the call only after q replicas succeed (R-of-N
// reads: the consistency side of redundancy). q = 1 is the default
// first-response-wins; values below 1 mean 1. The fan-out is raised to at
// least q, and the q quorum copies always launch immediately — they are
// correctness requirements, so the strategy's hedge schedule applies only
// to copies beyond them. A q larger than the replica set fails the call
// with ErrQuorumUnreachable. On failure the error is a *QuorumError
// carrying the partial outcomes.
func WithQuorum(q int) CallOption {
	return CallOption{set: optQuorum, quorum: q}
}

// WithStrategyOverride runs this call under s instead of the group's
// installed strategy — e.g. full replication for one latency-critical
// request over a group that normally hedges. The group's strategy is
// unchanged and concurrent callers are unaffected. A nil s leaves the
// group's strategy in effect.
func WithStrategyOverride(s Strategy) CallOption {
	return CallOption{set: optStrategy, strategy: s}
}

// WithFanoutCap caps the number of copies this call may launch,
// overriding a larger strategy fan-out (e.g. degrade an expensive
// operation to a single copy). Values below 1 mean no cap. A quorum
// requirement takes precedence: the fan-out never drops below the call's
// quorum.
func WithFanoutCap(n int) CallOption {
	return CallOption{set: optFanoutCap, fanoutCap: n}
}

// WithLabel tags the call's Observation, so an Observer (e.g. Counters)
// can aggregate metrics per traffic class — "checkout" vs "prefetch" —
// through one shared group.
func WithLabel(label string) CallOption {
	return CallOption{set: optLabel, label: label}
}

// WithCollectOutcomes gathers the per-copy outcomes of the call into
// *dst: every copy that completed before the call returned, success and
// failure alike, in completion order (copies cancelled in flight do not
// appear). dst is reset to length zero first. The element type must
// match the group's result type, otherwise Do fails with an error.
func WithCollectOutcomes[T any](dst *[]Outcome[T]) CallOption {
	return CallOption{set: optOutcomes, outcomes: dst}
}

// WithNegativeAnswer makes a copy that fails with an error matching
// sentinel (errors.Is) an answer rather than a failure: a key that is
// absent on that replica, say, where the caller wants to know which
// replicas lack it. Such a copy counts toward the quorum, is collected
// with its error like any completed copy, and never supplies the call's
// Value: a call whose quorum was met by answers alone fails with the
// first one's error. Any other error is a failure as usual.
func WithNegativeAnswer(sentinel error) CallOption {
	return CallOption{set: optNegative, negative: sentinel}
}
