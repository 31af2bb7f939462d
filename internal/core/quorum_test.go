package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// quorumDo runs one WithQuorum(q) call over a full-replicating group of
// reps and returns its successes in completion order.
func quorumDo[T any](ctx context.Context, q int, reps ...Replica[T]) ([]Outcome[T], error) {
	var outs []Outcome[T]
	_, err := groupOf(FullReplicate{}, reps...).Do(ctx, WithQuorum(q), WithCollectOutcomes(&outs))
	wins := outs[:0]
	for _, o := range outs {
		if o.Err == nil {
			wins = append(wins, o)
		}
	}
	return wins, err
}

func TestQuorumFirstQSuccesses(t *testing.T) {
	outs, err := quorumDo(context.Background(), 2,
		coretest.Sleeper("a", 5*time.Millisecond),
		coretest.Sleeper("b", 10*time.Millisecond),
		coretest.Sleeper("c", 500*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d successes", len(outs))
	}
	if outs[0].Value != "a" || outs[1].Value != "b" {
		t.Errorf("quorum values %q, %q; want a, b (completion order)", outs[0].Value, outs[1].Value)
	}
	if outs[1].Latency > 300*time.Millisecond {
		t.Error("quorum waited for the slow replica")
	}
}

func TestQuorumOfOneIsFirst(t *testing.T) {
	outs, err := quorumDo(context.Background(), 1,
		coretest.Sleeper(1, 50*time.Millisecond),
		coretest.Sleeper(2, time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Value != 2 {
		t.Errorf("outs = %+v", outs)
	}
}

func TestQuorumToleratesFailuresUpToNMinusQ(t *testing.T) {
	outs, err := quorumDo(context.Background(), 2,
		coretest.Failer[int](errors.New("down"), time.Millisecond),
		coretest.Sleeper(1, 5*time.Millisecond),
		coretest.Sleeper(2, 10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d successes", len(outs))
	}
}

func TestQuorumFailsWhenImpossible(t *testing.T) {
	e1, e2 := errors.New("one"), errors.New("two")
	_, err := quorumDo(context.Background(), 2,
		coretest.Failer[int](e1, time.Millisecond),
		coretest.Failer[int](e2, time.Millisecond),
		coretest.Sleeper(1, 5*time.Millisecond),
	)
	if err == nil {
		t.Fatal("2-of-3 quorum with 2 failures should error")
	}
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Errorf("joined error missing causes: %v", err)
	}
}

// TestQuorumValidation: an empty group has no replicas to count, a
// quorum below 1 is first-response-wins, and one larger than the
// replica set is unreachable before anything launches.
func TestQuorumValidation(t *testing.T) {
	if _, err := quorumDo[int](context.Background(), 1); !errors.Is(err, ErrNoReplicas) {
		t.Errorf("empty: %v", err)
	}
	if outs, err := quorumDo(context.Background(), 0, coretest.Instant(1), coretest.Blocked(2, coretest.NewGate())); err != nil || len(outs) != 1 {
		t.Errorf("q=0 = (%+v, %v), want the first success alone", outs, err)
	}
	launches := 0
	count := func(ctx context.Context) (int, error) { launches++; return 1, nil }
	if _, err := quorumDo[int](context.Background(), 3, count, count); !errors.Is(err, ErrQuorumUnreachable) || launches != 0 {
		t.Errorf("q > n: err %v after %d launches, want ErrQuorumUnreachable after none", err, launches)
	}
}

func TestQuorumContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := quorumDo(ctx, 1, coretest.Sleeper(1, 5*time.Second), coretest.Sleeper(2, 5*time.Second))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("got %v", err)
	}
}

// TestAllRunsEverything: ProbeAll runs every replica to completion —
// the failure and the slowest one included — and measures each success,
// so ranked selection then knows the fastest.
func TestAllRunsEverything(t *testing.T) {
	g := groupOf(FullReplicate{},
		coretest.Sleeper("x", time.Millisecond),
		coretest.Failer[string](errors.New("bad"), time.Millisecond),
		coretest.Sleeper("z", 20*time.Millisecond),
	)
	if ok := g.ProbeAll(context.Background()); ok != 2 {
		t.Fatalf("ProbeAll = %d successes, want 2", ok)
	}
	x, okX := g.EstimatedLatency("r0")
	z, okZ := g.EstimatedLatency("r2")
	if !okX || !okZ || z < x {
		t.Errorf("estimates r0 %v (%v), r2 %v (%v): want both, r2 the slower", x, okX, z, okZ)
	}
	if _, ok := g.EstimatedLatency("r1"); ok {
		t.Error("the failing replica acquired an estimate")
	}
}

// TestFastestSortsAndFilters: after ProbeAll the group ranks the
// replicas that answered fastest first, and keeps the one that failed
// apart — unmeasured, so ranked selection probes it again first.
func TestFastestSortsAndFilters(t *testing.T) {
	g := groupOf(FullReplicate{},
		coretest.Sleeper("slow", 30*time.Millisecond),
		coretest.Failer[string](errors.New("x"), time.Millisecond),
		coretest.Sleeper("fast", time.Millisecond),
	)
	g.ProbeAll(context.Background())
	var measured []string
	for _, r := range g.Stats().Replicas {
		if r.Observed {
			measured = append(measured, r.Name)
		}
	}
	if len(measured) != 2 {
		t.Fatalf("measured %v, want the two that answered", measured)
	}
	if got := g.RankedNames(); len(got) != 3 || got[0] != "r1" || got[1] != "r2" || got[2] != "r0" {
		t.Errorf("RankedNames = %v, want [r1 r2 r0]: the unmeasured failure, then fast before slow", got)
	}
}

// TestQuorumNegativeAnswers: under WithNegativeAnswer a copy failing
// with the sentinel answered — it counts toward the quorum and is
// collected, so a fast miss neither fails a 2-of-2 call nor cancels the
// slower hit it waits for — but it is never the call's Value, and a
// quorum met by such answers alone fails with the sentinel. Without the
// option the same fast miss fails the call at once.
func TestQuorumNegativeAnswers(t *testing.T) {
	ctx := context.Background()
	absent := errors.New("absent")
	do := func(opts []CallOption, reps ...Replica[string]) (Result[string], []Outcome[string], error) {
		var outs []Outcome[string]
		opts = append(opts, WithQuorum(2), WithCollectOutcomes(&outs))
		res, err := groupOf(FullReplicate{}, reps...).Do(ctx, opts...)
		return res, outs, err
	}
	negative := []CallOption{WithNegativeAnswer(absent)}

	res, outs, err := do(negative,
		coretest.Failer[string](absent, time.Millisecond),
		coretest.Sleeper("hit", 20*time.Millisecond))
	if err != nil || res.Value != "hit" || res.Index != 1 {
		t.Fatalf("miss then hit = (%+v, %v), want hit from copy 1", res, err)
	}
	if len(outs) != 2 || !errors.Is(outs[0].Err, absent) || outs[1].Err != nil {
		t.Errorf("outcomes %+v, want the miss then the hit", outs)
	}

	if _, _, err := do(nil,
		coretest.Failer[string](absent, time.Millisecond),
		coretest.Sleeper("hit", 20*time.Millisecond)); !errors.Is(err, ErrQuorumUnreachable) {
		t.Errorf("without the option a miss fails the 2-of-2 call: %v, want ErrQuorumUnreachable", err)
	}

	res, outs, err = do(negative,
		coretest.Failer[string](absent, time.Millisecond),
		coretest.Failer[string](absent, 2*time.Millisecond))
	if !errors.Is(err, absent) || errors.Is(err, ErrQuorumUnreachable) || res.Value != "" || len(outs) != 2 {
		t.Errorf("two misses = (%+v, %v, %d outcomes), want the sentinel, no value, both collected", res, err, len(outs))
	}

	down := errors.New("down")
	if _, _, err := do(negative,
		coretest.Failer[string](absent, time.Millisecond),
		coretest.Failer[string](down, 2*time.Millisecond)); !errors.Is(err, ErrQuorumUnreachable) || !errors.Is(err, down) {
		t.Errorf("a miss and a failure = %v, want ErrQuorumUnreachable naming the failure", err)
	}
}

// TestQuorumOfReadsTheCallsOptions: QuorumOf sees the last WithQuorum,
// an explicit 0 included, and a collector of the asked-for element type,
// and folding options that carry neither costs nothing.
func TestQuorumOfReadsTheCallsOptions(t *testing.T) {
	var outs []Outcome[string]
	if q, c := QuorumOf[string](nil); q != 0 || c != nil {
		t.Fatalf("no options: (%d, %v), want (0, nil)", q, c)
	}
	q, c := QuorumOf[string]([]CallOption{WithQuorum(3), WithLabel("x"), WithQuorum(2), WithCollectOutcomes(&outs)})
	if q != 2 || c != &outs {
		t.Fatalf("QuorumOf = (%d, %p), want (2, %p)", q, c, &outs)
	}
	if q, _ := QuorumOf[string]([]CallOption{WithQuorum(3), {}, WithQuorum(0)}); q != 0 {
		t.Fatalf("WithQuorum(3), WithQuorum(0): QuorumOf = %d, want 0", q)
	}
	if _, c := QuorumOf[int]([]CallOption{WithCollectOutcomes(&outs)}); c != nil {
		t.Fatalf("a collector of another element type was returned")
	}
	if coretest.Race() {
		return
	}
	opts := []CallOption{WithLabel("x"), WithFanoutCap(1)}
	if n := testing.AllocsPerRun(100, func() { QuorumOf[string](opts) }); n != 0 {
		t.Errorf("QuorumOf allocates %.0f per call, want 0", n)
	}
}
