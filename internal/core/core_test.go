package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// groupOf registers reps on a fresh group running s, as "r0", "r1", … in
// order. No digest has an observation yet, so ranked selection launches
// them in registration order: on the group's first call copy i is
// reps[i], and Result.Index names the replica.
func groupOf[T any](s Strategy, reps ...Replica[T]) *Group[T] {
	g := NewStrategyGroup[T](s)
	for i, r := range reps {
		g.Add(fmt.Sprintf("r%d", i), r)
	}
	return g
}

func TestFirstReturnsFastest(t *testing.T) {
	res, err := groupOf(FullReplicate{},
		coretest.Sleeper("slow", 200*time.Millisecond),
		coretest.Sleeper("fast", 5*time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "fast" || res.Index != 1 {
		t.Errorf("got %q from index %d, want fast/1", res.Value, res.Index)
	}
	if res.Launched != 2 {
		t.Errorf("Launched = %d, want 2", res.Launched)
	}
	if res.Latency > 150*time.Millisecond {
		t.Errorf("did not return at first response: latency %v", res.Latency)
	}
}

func TestFirstCancelsLosers(t *testing.T) {
	// The loser blocks on an unreleased gate, so it can only finish by
	// observing its context's cancellation — reported through a second
	// gate the test waits on, with no polling.
	cancelled := coretest.NewGate()
	loser := coretest.CancelReporting(cancelled, coretest.Blocked("too slow", coretest.NewGate()))
	res, err := groupOf(FullReplicate{}, coretest.Instant("win"), loser).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", res.Cancelled)
	}
	select {
	case <-cancelled.C():
	case <-time.After(2 * time.Second):
		t.Error("loser was not cancelled after winner returned")
	}
}

func TestFirstSkipsFailuresAndUsesSlowerSuccess(t *testing.T) {
	res, err := groupOf(FullReplicate{},
		coretest.Failer[string](errors.New("boom"), time.Millisecond),
		coretest.Sleeper("ok", 20*time.Millisecond),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "ok" {
		t.Errorf("got %q, want ok", res.Value)
	}
}

func TestFirstAllFailJoinsErrors(t *testing.T) {
	e1, e2 := errors.New("first bad"), errors.New("second bad")
	_, err := groupOf(FullReplicate{},
		coretest.Failer[int](e1, time.Millisecond),
		coretest.Failer[int](e2, 2*time.Millisecond),
	).Do(context.Background())
	if err == nil {
		t.Fatal("want error when all replicas fail")
	}
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("joined error missing causes: %v", err)
	}
	if !strings.Contains(err.Error(), "replica r0 (copy 0)") || !strings.Contains(err.Error(), "replica r1 (copy 1)") {
		t.Errorf("error should identify replicas: %v", err)
	}
}

func TestFirstNoReplicas(t *testing.T) {
	_, err := NewStrategyGroup[int](FullReplicate{}).Do(context.Background())
	if !errors.Is(err, ErrNoReplicas) {
		t.Errorf("got %v, want ErrNoReplicas", err)
	}
}

// TestFirstParentContextCancel: the caller gives up mid-call, once a copy
// is demonstrably running (it signals through a gate and then blocks
// until cancelled) — no sleep-guessed delay. The call returns the bare
// context error and both copies are reclaimed.
func TestFirstParentContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := coretest.NewGate()
	rep := func(ctx context.Context) (string, error) {
		started.Release()
		return coretest.Blocked("never", coretest.NewGate())(ctx)
	}
	go func() {
		<-started.C()
		cancel()
	}()
	res, err := groupOf[string](FullReplicate{}, rep, rep).Do(ctx)
	if err != context.Canceled {
		t.Errorf("got %v, want the bare context.Canceled", err)
	}
	if res.Launched != 2 || res.Cancelled != 2 {
		t.Errorf("Launched/Cancelled = %d/%d, want 2/2", res.Launched, res.Cancelled)
	}
}

func TestFirstValue(t *testing.T) {
	g := groupOf(FullReplicate{}, coretest.Sleeper(42, time.Millisecond), coretest.Blocked(7, coretest.NewGate()))
	v, err := g.DoValue(context.Background())
	if err != nil || v != 42 {
		t.Errorf("DoValue = (%v, %v), want (42, nil)", v, err)
	}
}

// TestFirstNoGoroutineLeak runs 50 calls whose two losers block until
// cancelled, then waits — on a channel, not a clock — for all 100 losers
// to have returned: a copy the engine never cancelled would keep it
// waiting. Their goroutines then only deliver and exit.
func TestFirstNoGoroutineLeak(t *testing.T) {
	const calls, losers = 50, 2
	before := runtime.NumGoroutine()
	var returned atomic.Int32
	allReturned := make(chan struct{})
	loser := func(v string) Replica[string] {
		blocked := coretest.Blocked(v, coretest.NewGate())
		return func(ctx context.Context) (string, error) {
			defer func() {
				if returned.Add(1) == calls*losers {
					close(allReturned)
				}
			}()
			return blocked(ctx)
		}
	}
	g := NewStrategyGroup[string](FullReplicate{})
	g.Add("fast", coretest.Instant("fast"))
	g.Add("slow", loser("slow"))
	g.Add("stuck", loser("stuck"))
	for i := 0; i < calls; i++ {
		if res, err := g.Do(context.Background()); err != nil || res.Value != "fast" {
			t.Fatalf("call %d = (%+v, %v)", i, res, err)
		}
	}
	select {
	case <-allReturned:
	case <-time.After(5 * time.Second):
		t.Fatalf("%d of %d losers returned: the rest were never cancelled", returned.Load(), calls*losers)
	}
	// A loser has returned before its goroutine exits, and on a busy
	// machine the exit can lag: give them until a deadline, not a fixed
	// number of yields. A little slack too, for goroutines other tests left
	// behind (a timer's callback, say) that come and go meanwhile.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+5 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+5 {
		t.Errorf("goroutines grew from %d to %d: leak", before, after)
	}
}

func TestHedgedSingleCopyWhenFast(t *testing.T) {
	// An instant primary against a generous hedge delay: the hedge (which
	// would block forever) must never launch.
	var launches atomic.Int32
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: 100 * time.Millisecond},
		coretest.Counting(&launches, coretest.Instant("primary")),
		coretest.Counting(&launches, coretest.Blocked("hedge", coretest.NewGate())),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "primary" {
		t.Errorf("got %q, want primary", res.Value)
	}
	if n := launches.Load(); n != 1 {
		t.Errorf("launched %d copies, want 1 (hedge not needed)", n)
	}
	if res.Launched != 1 {
		t.Errorf("Launched = %d, want 1", res.Launched)
	}
}

func TestHedgedLaunchesSecondWhenSlow(t *testing.T) {
	// The primary blocks forever, so only the hedge can win — and it can
	// only launch after the hedge delay expires.
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: 10 * time.Millisecond},
		coretest.Blocked("slow-primary", coretest.NewGate()),
		coretest.Instant("hedge"),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "hedge" || res.Index != 1 {
		t.Errorf("got %q from %d, want hedge/1", res.Value, res.Index)
	}
	if res.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1 (the blocked primary)", res.Cancelled)
	}
}

func TestHedgedImmediateOnFailure(t *testing.T) {
	// If the primary fails fast, the hedge launches immediately rather
	// than waiting out the delay.
	start := time.Now()
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: time.Hour},
		coretest.Fail[string](errors.New("down")),
		coretest.Instant("backup"),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != "backup" {
		t.Errorf("got %q, want backup", res.Value)
	}
	if time.Since(start) > time.Second {
		t.Error("hedge waited for delay after primary failure")
	}
}

func TestHedgedAllFail(t *testing.T) {
	_, err := groupOf(Fixed{Copies: 2, HedgeDelay: time.Millisecond},
		coretest.Fail[int](errors.New("a")),
		coretest.Fail[int](errors.New("b")),
	).Do(context.Background())
	if err == nil || !strings.Contains(err.Error(), ": a") || !strings.Contains(err.Error(), ": b") {
		t.Errorf("want joined errors, got %v", err)
	}
}

func TestHedgedScheduleStaggers(t *testing.T) {
	var order []int
	mu := newChanLock()
	never := coretest.NewGate()
	mk := func(i int, inner func(context.Context) (int, error)) Replica[int] {
		return func(ctx context.Context) (int, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return inner(ctx)
		}
	}
	res, err := groupOf(scheduleStrategy{copies: 3, sched: []time.Duration{0, 5 * time.Millisecond, 5 * time.Millisecond}},
		mk(0, coretest.Blocked(0, never)), mk(1, coretest.Blocked(1, never)), mk(2, coretest.Instant(2)),
	).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Errorf("got %d, want 2", res.Value)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("launch order %v, want [0 1 2]", order)
	}
}

// chanLock is a tiny mutex built on a channel so this test file has no
// sync import beyond atomic. The channel must be created before the lock
// is shared (lazy creation inside Lock would itself race).
type chanLock struct{ ch chan struct{} }

func newChanLock() *chanLock { return &chanLock{ch: make(chan struct{}, 1)} }

func (l *chanLock) Lock()   { l.ch <- struct{}{} }
func (l *chanLock) Unlock() { <-l.ch }

// TestFirstManyReplicas fans one call out to 64 replicas — past
// frameInline, so the picked set, the schedule and the results channel
// spill and copies beyond the fourth start through the spill path (go
// runFrameCopy). 63 block until cancelled; only replica 17 can win.
func TestFirstManyReplicas(t *testing.T) {
	never := coretest.NewGate()
	reps := make([]Replica[int], 64)
	for i := range reps {
		reps[i] = coretest.Blocked(i, never)
	}
	reps[17] = coretest.Instant(17)
	res, err := groupOf(FullReplicate{}, reps...).Do(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 17 || res.Index != 17 {
		t.Errorf("winner %d at index %d, want 17", res.Value, res.Index)
	}
	if res.Launched != 64 || res.Cancelled != 63 {
		t.Errorf("Launched/Cancelled = %d/%d, want 64/63", res.Launched, res.Cancelled)
	}
}

// TestResultLatencyMeasured: Result.Latency runs from the start of the
// call, not of the winning copy — a hedge that launches after 20ms and
// answers 20ms later reports at least 40ms.
func TestResultLatencyMeasured(t *testing.T) {
	res, err := groupOf(Fixed{Copies: 2, HedgeDelay: 20 * time.Millisecond},
		coretest.Blocked("stuck", coretest.NewGate()),
		coretest.Sleeper("hedge", 20*time.Millisecond),
	).Do(context.Background())
	if err != nil || res.Value != "hedge" {
		t.Fatalf("Do = (%+v, %v), want the hedge", res, err)
	}
	if res.Latency < 40*time.Millisecond || res.Latency > 2*time.Second {
		t.Errorf("latency %v, want from call start: >= 40ms (20ms hedge delay + 20ms copy)", res.Latency)
	}
}

// A redundant call is a Group call: FullReplicate races every replica
// and keeps the first answer.
func ExampleGroup_firstResponse() {
	g := NewStrategyGroup[string](FullReplicate{})
	g.Add("slow", func(ctx context.Context) (string, error) {
		select {
		case <-time.After(time.Second):
			return "slow server", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	g.Add("fast", func(ctx context.Context) (string, error) {
		return "fast server", nil
	})
	res, err := g.Do(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Value)
	// Output: fast server
}
