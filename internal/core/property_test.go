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

// Property: a full-replicating call returns the value of a replica whose
// index is among the launched set, and — when all replicas succeed — the
// winner's sleep time is the minimum (within scheduling tolerance,
// asserted as: winner's nominal delay is within 2x of the minimum delay).
func TestFirstPicksNearMinimumProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		delays := make([]time.Duration, len(raw))
		minD := time.Hour
		for i, v := range raw {
			// 1-29 ms, spaced to dodge scheduler jitter.
			delays[i] = time.Duration(1+int(v%8)*4) * time.Millisecond
			if delays[i] < minD {
				minD = delays[i]
			}
		}
		reps := make([]Replica[int], len(delays))
		for i := range delays {
			reps[i] = coretest.Sleeper(i, delays[i])
		}
		res, err := groupOf(FullReplicate{}, reps...).Do(context.Background())
		if err != nil || res.Launched != len(reps) {
			return false
		}
		if res.Index < 0 || res.Index >= len(reps) || res.Value != res.Index {
			return false
		}
		return delays[res.Index] <= minD*2+2*time.Millisecond
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: for any subset of failing replicas, a full-replicating call
// succeeds iff at least one replica succeeds, and the winner is never a
// failing index.
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
			if fails {
				reps[i] = coretest.Failer[int](boom, time.Microsecond)
			} else {
				reps[i] = coretest.Sleeper(i, time.Microsecond)
			}
		}
		res, err := groupOf(FullReplicate{}, reps...).Do(context.Background())
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

// Property: a WithQuorum(q) call over n replicas, any subset of which
// fails, returns at its q-th success or at the failure that leaves
// fewer than q possible — never later. When at least q can succeed it
// succeeds with exactly q wins and at most n-q failures collected, in
// nondecreasing completion latency; otherwise it fails with exactly
// n-q+1 failures collected and fewer than q wins. Either way the call
// is decided before every copy has completed unless the last one
// decides it: there is no third way out of the event loop.
func TestQuorumCountProperty(t *testing.T) {
	f := func(n, q, failMask uint8) bool {
		nn := 1 + int(n%5)
		qq := 1 + int(q)%nn
		fails := 0
		reps := make([]Replica[int], nn)
		for i := range reps {
			if failMask&(1<<i) != 0 {
				fails++
				reps[i] = coretest.Failer[int](errors.New("down"), time.Microsecond)
			} else {
				reps[i] = coretest.Sleeper(i, time.Duration(i)*time.Millisecond)
			}
		}
		var outs []Outcome[int]
		res, err := groupOf(FullReplicate{}, reps...).Do(context.Background(), WithQuorum(qq), WithCollectOutcomes(&outs))
		wins, failed := 0, 0
		for i, o := range outs {
			if o.Err == nil {
				wins++
			} else {
				failed++
			}
			if i > 0 && o.Latency < outs[i-1].Latency {
				return false
			}
		}
		if res.Launched != nn {
			return false
		}
		if nn-fails < qq {
			if qq > 1 && !errors.Is(err, ErrQuorumUnreachable) {
				return false
			}
			return err != nil && failed == nn-qq+1 && wins < qq
		}
		return err == nil && wins == qq && failed <= nn-qq
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
