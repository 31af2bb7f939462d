package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// --- Zero / negative hedge delays launch immediately (no timer). ---

func TestHedgedZeroDelayLaunchesAllImmediately(t *testing.T) {
	// A zero delay means full replication: the hedge must win long before
	// any timer tick could have fired against the stuck primary.
	start := time.Now()
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: 0},
		coretest.Sleeper("stuck", time.Hour),
		coretest.Sleeper("hedge", time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "hedge" {
		t.Errorf("got %q, want hedge", res.Value)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2 (zero delay launches both)", res.Launched)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("zero-delay hedge took %v", elapsed)
	}
}

func TestHedgedNegativeDelayLaunchesAllImmediately(t *testing.T) {
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: -time.Second},
		coretest.Sleeper("stuck", time.Hour),
		coretest.Sleeper("hedge", time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "hedge" || res.Launched != 2 {
		t.Errorf("res = %+v, want hedge with 2 launched", res)
	}
}

func TestHedgedScheduleZeroPrefixLaunchesTogether(t *testing.T) {
	// Copies 0 and 1 share a zero delay and must launch together; copy 2
	// sits behind a delay no test should ever wait out.
	var launches atomic.Int32
	mk := func(v string, d time.Duration) Replica[string] {
		return coretest.Counting(&launches, coretest.Sleeper(v, d))
	}
	res, err := groupOf(scheduleStrategy{copies: 3, sched: []time.Duration{0, 0, time.Hour}},
		mk("stuck", time.Hour),
		mk("fast", time.Millisecond),
		mk("never", time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" {
		t.Errorf("got %q, want fast", res.Value)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2 (zero-delay prefix, hour-delayed tail)", res.Launched)
	}
	if n := launches.Load(); n != 2 {
		t.Errorf("launched %d copies, want 2", n)
	}
}

func TestHedgedScheduleZeroDelayAfterTimer(t *testing.T) {
	// A zero entry behind a timed entry launches together with it once
	// the timer fires: schedule {_, 5ms, 0} must start copies 1 and 2 at
	// the same time.
	res, err := groupOf(scheduleStrategy{copies: 3, sched: []time.Duration{0, 5 * time.Millisecond, 0}},
		coretest.Sleeper("stuck", time.Hour),
		coretest.Sleeper("slow-hedge", time.Hour),
		coretest.Sleeper("fast-hedge", time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast-hedge" || res.Index != 2 {
		t.Errorf("got %q from %d, want fast-hedge/2", res.Value, res.Index)
	}
	if res.Launched != 3 {
		t.Errorf("Launched = %d, want 3", res.Launched)
	}
}

// --- Typed errors. ---

func TestFirstErrorsAreReplicaErrors(t *testing.T) {
	cause := errors.New("boom")
	_, err := groupOf(FullReplicate{},
		coretest.Failer[int](cause, time.Millisecond),
		coretest.Failer[int](cause, time.Millisecond),
	).Do(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	var re ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(ReplicaError) failed on %v", err)
	}
	if re.Name != fmt.Sprintf("r%d", re.Attempt) || !errors.Is(re.Err, cause) {
		t.Errorf("ReplicaError = %+v, want the failing copy's replica and cause", re)
	}
}

func TestGroupDoErrorsCarryReplicaNames(t *testing.T) {
	cause := errors.New("down")
	g := NewStrategyGroup[int](Fixed{Copies: 2})
	g.Add("alpha", coretest.Failer[int](cause, time.Millisecond))
	g.Add("beta", coretest.Failer[int](cause, time.Millisecond))
	_, err := g.Do(context.Background())
	if err == nil {
		t.Fatal("want error")
	}
	var re ReplicaError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(ReplicaError) failed on %v", err)
	}
	if re.Name != "alpha" && re.Name != "beta" {
		t.Errorf("ReplicaError.Name = %q, want a replica name", re.Name)
	}
	if !errors.Is(err, cause) {
		t.Errorf("joined error lost the cause: %v", err)
	}
}

func TestReplicaErrorFormat(t *testing.T) {
	e := ReplicaError{Attempt: 3, Err: errors.New("x")}
	if got := e.Error(); got != "replica 3: x" {
		t.Errorf("anonymous format %q", got)
	}
	e.Name = "kv-1"
	if got := e.Error(); got != "replica kv-1 (copy 3): x" {
		t.Errorf("named format %q", got)
	}
}

// --- WithQuorum on the group path. ---

func TestGroupDoQuorumCollectsWins(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 3})
	g.Add("a", coretest.Sleeper("a", time.Millisecond))
	g.Add("b", coretest.Sleeper("b", 5*time.Millisecond))
	g.Add("c", coretest.Sleeper("c", 300*time.Millisecond))
	var outs []Outcome[string]
	res, err := g.Do(context.Background(), WithQuorum(2), WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "a" {
		t.Errorf("winner %q, want the first success a", res.Value)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
		}
	}
	if wins != 2 {
		t.Errorf("collected %d wins, want 2", wins)
	}
	if res.Latency > 200*time.Millisecond {
		t.Errorf("quorum of 2 waited for the slow replica: %v", res.Latency)
	}
}

func TestGroupDoQuorumRaisesFanout(t *testing.T) {
	// The group's strategy says one copy; a quorum of 2 must still launch
	// two.
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	g.Add("b", coretest.Sleeper(2, time.Millisecond))
	res, err := g.Do(context.Background(), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2 (quorum outranks fan-out)", res.Launched)
	}
}

func TestGroupDoQuorumUnreachable(t *testing.T) {
	cause := errors.New("down")
	g := NewStrategyGroup[int](Fixed{Copies: 3})
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	g.Add("b", coretest.Failer[int](cause, time.Millisecond))
	g.Add("c", coretest.Failer[int](cause, time.Millisecond))
	_, err := g.Do(context.Background(), WithQuorum(2))
	if err == nil {
		t.Fatal("2-of-3 with 2 failures must error")
	}
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Errorf("errors.Is(ErrQuorumUnreachable) false: %v", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("cause lost: %v", err)
	}
	var qe *QuorumError[int]
	if !errors.As(err, &qe) {
		t.Fatalf("errors.As(*QuorumError) failed on %v", err)
	}
	if qe.Need != 2 {
		t.Errorf("Need = %d, want 2", qe.Need)
	}
	if len(qe.Outcomes) == 0 {
		t.Error("QuorumError carries no partial outcomes")
	}
	var re ReplicaError
	if !errors.As(err, &re) || re.Name == "" {
		t.Errorf("per-replica detail missing: %+v", re)
	}
}

func TestGroupDoQuorumExceedsReplicas(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	_, err := g.Do(context.Background(), WithQuorum(2))
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Errorf("quorum 2 of 1: got %v, want ErrQuorumUnreachable", err)
	}
}

// --- Strategy override, fan-out cap, label, sink type check. ---

func TestGroupDoStrategyOverride(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	for i := 0; i < 3; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), coretest.Sleeper(i, time.Millisecond))
	}
	res, err := g.Do(context.Background(), WithStrategyOverride(FullReplicate{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Errorf("override to full replication launched %d, want 3", res.Launched)
	}
	// The group's installed strategy is untouched.
	if got := g.Strategy(); got != (Fixed{Copies: 1}) {
		t.Errorf("group strategy mutated: %v, want Fixed{Copies: 1}", got)
	}
	res, err = g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("subsequent plain Do launched %d, want 1", res.Launched)
	}
}

func TestGroupDoFanoutCap(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 3})
	for i := 0; i < 3; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), coretest.Sleeper(i, time.Millisecond))
	}
	res, err := g.Do(context.Background(), WithFanoutCap(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 1 {
		t.Errorf("capped call launched %d, want 1", res.Launched)
	}
	// Quorum outranks the cap.
	res, err = g.Do(context.Background(), WithFanoutCap(1), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("quorum under cap launched %d, want 2", res.Launched)
	}
	// The last option to set the cap wins, an explicit 0 (no cap)
	// included.
	res, err = g.Do(context.Background(), WithFanoutCap(1), WithFanoutCap(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 3 {
		t.Errorf("cap 1 then cap 0 launched %d, want the strategy's 3", res.Launched)
	}
}

func TestGroupDoLabelReachesObserver(t *testing.T) {
	c := NewCounters()
	g := NewStrategyGroup[int](Fixed{Copies: 1}, WithObserver(c))
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	for i := 0; i < 3; i++ {
		if _, err := g.Do(context.Background(), WithLabel("checkout")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.LabelSnapshot("checkout"); got.Ops != 3 {
		t.Errorf("LabelSnapshot(checkout).Ops = %d, want 3", got.Ops)
	}
	if got, _ := c.LabelSnapshot("unknown"); got.Ops != 0 {
		t.Errorf("LabelSnapshot(unknown).Ops = %d, want 0", got.Ops)
	}
	if c.Ops() != 4 {
		t.Errorf("Ops = %d, want 4", c.Ops())
	}
	labels := c.Labels()
	if len(labels) != 1 || labels[0].Label != "checkout" || labels[0].Ops != 3 {
		t.Errorf("Labels() = %+v", labels)
	}
	if _, ok := c.LabelLatencyDigest("checkout").Quantile(0.5); !ok {
		t.Error("labeled latency digest empty")
	}
	if d := c.LabelLatencyDigest("checkout"); d == nil || d.Count() != 3 {
		t.Errorf("LabelLatencyDigest = %v", d)
	}
}

func TestGroupDoCollectSinkTypeMismatch(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	var wrong []Outcome[string]
	_, err := g.Do(context.Background(), WithCollectOutcomes(&wrong))
	if err == nil {
		t.Fatal("mismatched sink type accepted")
	}
}

func TestGroupDoCollectSinkReset(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 1})
	g.Add("a", coretest.Sleeper(1, time.Millisecond))
	outs := make([]Outcome[int], 5) // stale entries must not survive
	if _, err := g.Do(context.Background(), WithCollectOutcomes(&outs)); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Errorf("sink has %d entries, want 1 (reset before collection)", len(outs))
	}
}

// scheduleStrategy is a test strategy with an explicit launch schedule
// (at least as long as any fan-out it is asked for).
type scheduleStrategy struct {
	copies int
	sched  []time.Duration
}

// Fanout, ScheduleInto and String are the whole Strategy interface.
var _ Strategy = scheduleStrategy{}

func (s scheduleStrategy) Fanout() (int, Selection) { return s.copies, SelectRanked }
func (s scheduleStrategy) ScheduleInto(_ Digests, dst []time.Duration) []time.Duration {
	copy(dst, s.sched)
	return dst
}
func (s scheduleStrategy) String() string { return "test-schedule" }

// --- Option matrix under replica churn (run with -race). ---

func TestGroupDoOptionMatrixUnderChurn(t *testing.T) {
	g := NewStrategyGroup[int](Fixed{Copies: 2})
	var names []string
	for i := 0; i < 6; i++ {
		i := i
		name := fmt.Sprintf("r%d", i)
		names = append(names, name)
		g.Add(name, coretest.Sleeper(i, time.Microsecond))
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := names[rng.Intn(len(names))]
			if g.Remove(name) {
				g.Add(name, coretest.Sleeper(0, time.Microsecond))
			}
			if i%7 == 0 {
				g.SetStrategy(AdaptiveHedge{Copies: 2})
			} else if i%5 == 0 {
				g.SetStrategy(Fixed{Copies: 2})
			}
		}
	}()
	options := [][]CallOption{
		nil,
		{WithQuorum(2)},
		{WithStrategyOverride(FullReplicate{})},
		{WithStrategyOverride(Fixed{Copies: 3, HedgeDelay: time.Microsecond})},
		{WithQuorum(2), WithStrategyOverride(FullReplicate{}), WithLabel("matrix")},
		{WithFanoutCap(1)},
		{WithQuorum(3), WithFanoutCap(2)},
		{WithQuorum(3), WithQuorum(0)},
		{WithFanoutCap(2), WithFanoutCap(0)},
	}
	var workers sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		workers.Add(1)
		go func() {
			defer workers.Done()
			var outs []Outcome[int]
			for i := 0; i < 200; i++ {
				opts := options[(i+w)%len(options)]
				if i%11 == 0 {
					opts = append(append([]CallOption(nil), opts...), WithCollectOutcomes(&outs))
				}
				_, err := g.Do(context.Background(), opts...)
				// Membership churn can make any quorum temporarily
				// unsatisfiable; only those errors are expected.
				if err != nil && !errors.Is(err, ErrQuorumUnreachable) && !errors.Is(err, ErrNoReplicas) {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	churn.Wait()
}

func TestQuorumUnreachableIsTyped(t *testing.T) {
	e := errors.New("down")
	_, err := groupOf(FullReplicate{},
		coretest.Failer[int](e, time.Millisecond),
		coretest.Failer[int](e, time.Millisecond),
		coretest.Sleeper(1, 5*time.Millisecond),
	).Do(context.Background(), WithQuorum(2))
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Errorf("quorum failure not typed: %v", err)
	}
	var qe *QuorumError[int]
	if !errors.As(err, &qe) {
		t.Fatalf("errors.As(*QuorumError) failed: %v", err)
	}
	if len(qe.Outcomes) < 2 {
		t.Errorf("partial outcomes = %d, want >= 2", len(qe.Outcomes))
	}
}

func TestGroupDoQuorumCopiesLaunchImmediately(t *testing.T) {
	// The quorum copies are mandatory, so a hedging strategy must not
	// serialize them: under Fixed{HedgeDelay: 1h} a quorum-2 call still
	// launches both quorum copies at once and completes fast, while the
	// third (true hedge) copy stays behind its delay.
	g := NewStrategyGroup[int](Fixed{Copies: 3, HedgeDelay: time.Hour})
	for i := 0; i < 3; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), coretest.Sleeper(i, time.Millisecond))
	}
	start := time.Now()
	res, err := g.Do(context.Background(), WithQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2 (quorum copies immediate, hedge delayed)", res.Launched)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("quorum copies were serialized behind the hedge delay: %v", elapsed)
	}
}

func TestQuorumErrorOutcomesSurviveSinkReuse(t *testing.T) {
	// Partial outcomes in a QuorumError must not alias the caller's
	// sink: a retry through the same sink resets and refills it.
	cause := errors.New("down")
	g := NewStrategyGroup[string](Fixed{Copies: 2})
	g.Add("ok", coretest.Sleeper("salvage-me", time.Millisecond))
	g.Add("bad", coretest.Failer[string](cause, 5*time.Millisecond))
	var outs []Outcome[string]
	_, err := g.Do(context.Background(), WithQuorum(2), WithCollectOutcomes(&outs))
	var qe *QuorumError[string]
	if !errors.As(err, &qe) {
		t.Fatalf("want QuorumError, got %v", err)
	}
	saved := make([]Outcome[string], len(qe.Outcomes))
	copy(saved, qe.Outcomes)
	// Reuse the sink for another failing call.
	if _, err := g.Do(context.Background(), WithQuorum(2), WithCollectOutcomes(&outs)); err == nil {
		t.Fatal("second call should fail too")
	}
	if len(qe.Outcomes) != len(saved) {
		t.Fatalf("QuorumError outcomes changed length after sink reuse")
	}
	for i := range saved {
		if qe.Outcomes[i].Index != saved[i].Index || qe.Outcomes[i].Value != saved[i].Value {
			t.Errorf("outcome %d mutated by sink reuse: %+v vs %+v", i, qe.Outcomes[i], saved[i])
		}
	}
}

// --- The engine behind everything: no goroutine or timer leak on the
// quorum path with hedged schedules. ---

func TestGroupDoQuorumWithAdaptiveHedgeWarm(t *testing.T) {
	// Quorum composes with a hedging schedule: a warm AdaptiveHedge group
	// under WithQuorum(2) must still complete with two successes.
	g := NewStrategyGroup[int](AdaptiveHedge{Copies: 3, MinSamples: 1, FallbackDelay: time.Millisecond})
	for i := 0; i < 3; i++ {
		i := i
		g.Add(fmt.Sprintf("r%d", i), coretest.Sleeper(i, time.Millisecond))
	}
	g.ProbeAll(context.Background())
	var outs []Outcome[int]
	res, err := g.Do(context.Background(), WithQuorum(2), WithCollectOutcomes(&outs))
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
		}
	}
	if wins != 2 {
		t.Errorf("wins = %d, want 2", wins)
	}
	if res.Launched < 2 {
		t.Errorf("Launched = %d, want >= 2", res.Launched)
	}
}

// --- Cancellation edges: derived per-copy contexts and the cancelled
// accounting, separate from failures. ---

func TestCallerCancelMidQuorum(t *testing.T) {
	// Quorum 2 of 3: one instant win, two copies blocked. The caller
	// cancels mid-quorum; the call must return the caller's error and
	// report both outstanding copies cancelled, and the blocked copies
	// must observe cancellation through their derived contexts.
	g := NewStrategyGroup[int](Fixed{Copies: 3})
	c1 := coretest.NewGate()
	c2 := coretest.NewGate()
	g.Add("win", coretest.Instant(1))
	g.Add("b1", coretest.CancelReporting(c1, coretest.Blocked(2, coretest.NewGate())))
	g.Add("b2", coretest.CancelReporting(c2, coretest.Blocked(3, coretest.NewGate())))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res Result[int]
	var err error
	go func() {
		defer close(done)
		res, err = g.Do(ctx, WithQuorum(2))
	}()
	cancel()
	<-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Launched != 3 {
		t.Errorf("Launched = %d, want 3", res.Launched)
	}
	// The instant winner may or may not have completed before the cancel
	// won the race; the blocked copies never complete.
	if res.Cancelled < 2 || res.Cancelled > 3 {
		t.Errorf("Cancelled = %d, want 2 or 3", res.Cancelled)
	}
	for _, gate := range []*coretest.Gate{c1, c2} {
		select {
		case <-gate.C():
		case <-time.After(2 * time.Second):
			t.Fatal("blocked quorum copy never observed cancellation")
		}
	}
}

func TestWinnerCompletesWhileHedgeStillDialing(t *testing.T) {
	// The hedge is mid-"dial" (blocked before doing any work) when the
	// primary completes: it must be cancelled through its derived
	// context, counted in Result.Cancelled, and recorded per replica —
	// not as a failure.
	c := NewCounters()
	g := NewStrategyGroup[string](
		scheduleStrategy{copies: 2, sched: []time.Duration{0, 0}},
		WithObserver(c),
	)
	release := coretest.NewGate()
	hedgeCancelled := coretest.NewGate()
	g.Add("primary", coretest.Blocked("primary", release))
	g.Add("hedge", coretest.CancelReporting(hedgeCancelled, coretest.Blocked("hedge", coretest.NewGate())))
	// Rank the primary fastest so selection order is deterministic.
	g.Digest("primary").Observe(time.Millisecond)
	g.Digest("hedge").Observe(time.Hour)

	release.Release()
	res, err := g.Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "primary" {
		t.Fatalf("winner %q", res.Value)
	}
	if res.Launched != 2 || res.Cancelled != 1 {
		t.Errorf("Launched/Cancelled = %d/%d, want 2/1", res.Launched, res.Cancelled)
	}
	select {
	case <-hedgeCancelled.C():
	case <-time.After(2 * time.Second):
		t.Fatal("dialing hedge never observed cancellation")
	}
	// Observer accounting: one op, one cancelled copy, zero failures.
	if got := c.CancelledCopies(); got != 1 {
		t.Errorf("CancelledCopies = %d, want 1", got)
	}
	if c.Failures() != 0 {
		t.Errorf("Failures = %d, want 0 (cancellation is not failure)", c.Failures())
	}
	// Per-replica stats converge once the cancelled goroutine finishes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if statsCancelled(g.Stats(), "hedge") == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := statsCancelled(g.Stats(), "hedge"); got != 1 {
		t.Errorf("hedge ReplicaStats.Cancelled = %d, want 1", got)
	}
	if got := statsCancelled(g.Stats(), "primary"); got != 0 {
		t.Errorf("primary ReplicaStats.Cancelled = %d, want 0", got)
	}
}

func statsCancelled(s GroupStats, name string) int64 {
	for _, r := range s.Replicas {
		if r.Name == name {
			return r.Cancelled
		}
	}
	return -1
}

func TestCancelledCopiesLabelled(t *testing.T) {
	c := NewCounters()
	g := NewStrategyGroup[string](Fixed{Copies: 2}, WithObserver(c))
	g.Add("fast", coretest.Instant("fast"))
	g.Add("stuck", coretest.Blocked("stuck", coretest.NewGate()))
	for i := 0; i < 3; i++ {
		if _, err := g.Do(context.Background(), WithLabel("reads")); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.CancelledCopies(); got != 3 {
		t.Errorf("CancelledCopies = %d, want 3", got)
	}
	labels := c.Labels()
	if len(labels) != 1 || labels[0].Cancelled != 3 {
		t.Errorf("Labels() = %+v, want reads with 3 cancelled", labels)
	}
}

// TestAllRunsEverythingNoCancellation: ProbeAll, the one way to run
// every replica to completion, cancels nothing — every copy completes,
// none is counted cancelled, and only the failure goes unmeasured.
func TestAllRunsEverythingNoCancellation(t *testing.T) {
	gate := coretest.NewGate()
	gate.Release()
	g := groupOf(FullReplicate{},
		coretest.Instant(1),
		coretest.Blocked(2, gate),
		coretest.Fail[int](errors.New("x")),
	)
	if ok := g.ProbeAll(context.Background()); ok != 2 {
		t.Fatalf("ProbeAll = %d successes, want 2", ok)
	}
	for i, r := range g.Stats().Replicas {
		if r.Cancelled != 0 {
			t.Errorf("%s: Cancelled = %d, want 0", r.Name, r.Cancelled)
		}
		if r.Observed != (i != 2) {
			t.Errorf("%s: Observed = %v, want only the failing replica unmeasured", r.Name, r.Observed)
		}
	}
}
