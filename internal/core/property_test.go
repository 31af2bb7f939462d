package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"redundancy/internal/core/coretest"
)

// Property: First returns the value of a replica whose index is among the
// launched set, and — when all replicas succeed — the winner's sleep time
// is the minimum (within scheduling tolerance, asserted as: winner's
// nominal delay is within 2x of the minimum delay).
func TestFirstPicksNearMinimumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		delays := make([]time.Duration, len(raw))
		minD := time.Hour
		for i, v := range raw {
			// 1-32 ms, spaced to dodge scheduler jitter.
			delays[i] = time.Duration(1+int(v%8)*4) * time.Millisecond
			if delays[i] < minD {
				minD = delays[i]
			}
		}
		reps := make([]Replica[int], len(delays))
		for i := range delays {
			i := i
			reps[i] = coretest.Sleeper(i, delays[i])
		}
		res, err := First(context.Background(), reps...)
		if err != nil {
			return false
		}
		if res.Index < 0 || res.Index >= len(reps) {
			return false
		}
		return delays[res.Index] <= minD*2+2*time.Millisecond
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: for any subset of failing replicas, First succeeds iff at
// least one replica succeeds, and the winner is never a failing index.
func TestFirstSuccessIffAnySucceedsProperty(t *testing.T) {
	boom := errors.New("boom")
	f := func(failMask uint8, n uint8) bool {
		count := 1 + int(n%5)
		anyOK := false
		reps := make([]Replica[int], count)
		for i := 0; i < count; i++ {
			fails := failMask&(1<<i) != 0
			if !fails {
				anyOK = true
			}
			i := i
			if fails {
				reps[i] = coretest.Failer[int](boom, time.Microsecond)
			} else {
				reps[i] = coretest.Sleeper(i, time.Microsecond)
			}
		}
		res, err := First(context.Background(), reps...)
		if anyOK {
			if err != nil {
				return false
			}
			return failMask&(1<<res.Index) == 0
		}
		return err != nil && errors.Is(err, boom)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Quorum(q) returns exactly q outcomes whenever at least q
// replicas can succeed, with strictly nondecreasing completion latencies.
func TestQuorumCountProperty(t *testing.T) {
	f := func(n, q, failCount uint8) bool {
		nn := 1 + int(n%5)
		qq := 1 + int(q)%nn
		fails := int(failCount) % (nn + 1)
		reps := make([]Replica[int], nn)
		for i := range reps {
			i := i
			if i < fails {
				reps[i] = coretest.Failer[int](errors.New("down"), time.Microsecond)
			} else {
				reps[i] = coretest.Sleeper(i, time.Duration(i)*time.Millisecond)
			}
		}
		outs, err := Quorum(context.Background(), qq, reps...)
		canSucceed := nn-fails >= qq
		if !canSucceed {
			return err != nil
		}
		if err != nil || len(outs) != qq {
			return false
		}
		for i := 1; i < len(outs); i++ {
			if outs[i].Latency < outs[i-1].Latency {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestProbeAllMeasuresEveryReplica(t *testing.T) {
	g := NewStrategyGroup[string](Fixed{Copies: 2})
	g.Add("fast", coretest.Sleeper("fast", time.Millisecond))
	g.Add("slow", coretest.Sleeper("slow", 25*time.Millisecond))
	g.Add("bad", coretest.Failer[string](errors.New("down"), time.Millisecond))
	ok := g.ProbeAll(context.Background())
	if ok != 2 {
		t.Fatalf("ProbeAll reported %d successes, want 2", ok)
	}
	// Both healthy replicas now have estimates; the dead one does not.
	if _, has := g.EstimatedLatency("fast"); !has {
		t.Error("fast has no estimate after probe")
	}
	df, _ := g.EstimatedLatency("fast")
	ds, hasSlow := g.EstimatedLatency("slow")
	if !hasSlow {
		t.Fatal("slow has no estimate after probe")
	}
	if ds <= df {
		t.Errorf("slow estimate %v not above fast %v", ds, df)
	}
	if _, has := g.EstimatedLatency("bad"); has {
		t.Error("failed replica acquired an estimate")
	}
	ranked := g.RankedNames()
	// Unprobed ("bad") first so it gets probed; then fast before slow.
	if ranked[0] != "bad" || ranked[1] != "fast" || ranked[2] != "slow" {
		t.Errorf("ranked = %v", ranked)
	}
}
