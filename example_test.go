package redundancy_test

import (
	"context"
	"fmt"
	"time"

	"redundancy"
)

// The simplest use: race two replicas, keep the faster answer. A
// redundant call is a Group call; FullReplicate sends every call to
// every replica.
func ExampleGroup_firstResponse() {
	g := redundancy.NewStrategyGroup[string](redundancy.FullReplicate{})
	g.Add("slow", func(ctx context.Context) (string, error) {
		select { // a slow replica that honors cancellation
		case <-time.After(time.Second):
			return "slow", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})
	g.Add("fast", func(ctx context.Context) (string, error) { return "fast", nil })

	res, err := g.Do(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Value)
	// Output: fast
}

// A hedge delay launches the second copy only if the first is slow,
// keeping the added load near zero for well-behaved requests.
func ExampleFixed_hedged() {
	g := redundancy.NewStrategyGroup[string](redundancy.Fixed{Copies: 2, HedgeDelay: 50 * time.Millisecond})
	g.Add("primary", func(ctx context.Context) (string, error) { return "primary", nil })
	g.Add("hedge", func(ctx context.Context) (string, error) { return "hedge", nil })

	res, _ := g.Do(context.Background())
	fmt.Println(res.Value, res.Launched)
	// Output: primary 1
}

// A quorum call waits for q successes — R-of-N reads in replicated
// storage — and the outcomes it collected are the copies that answered
// before it returned: here the two fast ones, not the straggler.
func ExampleWithQuorum_outcomes() {
	g := redundancy.NewStrategyGroup[int](redundancy.FullReplicate{})
	g.Add("a", func(ctx context.Context) (int, error) { return 1, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 2, nil })
	g.Add("c", func(ctx context.Context) (int, error) {
		select {
		case <-time.After(time.Second):
			return 3, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})

	var outs []redundancy.Outcome[int]
	g.Do(context.Background(), redundancy.WithQuorum(2), redundancy.WithCollectOutcomes(&outs))
	fmt.Println(len(outs))
	// Output: 2
}

// AdaptiveHedge launches the second copy when the elapsed time exceeds
// the primary's observed p95, read from its lock-free latency digest.
// While the digests are cold it hedges immediately (warming fastest);
// once warm, the hedge point self-tunes to each replica's tail — no
// caller-guessed delay. examples/adaptivehedge shows it tracking two
// deliberately skewed backends.
func ExampleAdaptiveHedge() {
	g := redundancy.NewStrategyGroup[string](redundancy.AdaptiveHedge{
		Copies:    2,
		Quantile:  0.95,
		Selection: redundancy.SelectRanked,
	})
	g.Add("fast", func(ctx context.Context) (string, error) { return "fast", nil })
	g.Add("slow", func(ctx context.Context) (string, error) {
		select {
		case <-time.After(time.Second):
			return "slow", nil
		case <-ctx.Done():
			return "", ctx.Err()
		}
	})

	res, err := g.Do(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Value, res.Launched, g.Stats().Strategy)
	// Output: fast 2 adaptive-hedge(k=2, p95, ranked)
}

// Per-call options tune one operation over a shared group: a quorum read
// waits for 2 of 3 successes and collects each voter's outcome (the
// engine compares no values; that is the caller's to do), while every
// other caller keeps first-response semantics.
func ExampleWithQuorum() {
	g := redundancy.NewStrategyGroup[int](redundancy.Fixed{Copies: 3})
	g.Add("a", func(ctx context.Context) (int, error) { return 42, nil })
	g.Add("b", func(ctx context.Context) (int, error) { return 42, nil })
	g.Add("c", func(ctx context.Context) (int, error) {
		select { // a straggler the quorum does not wait for
		case <-time.After(time.Second):
			return 42, nil
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	})

	var outs []redundancy.Outcome[int]
	res, err := g.Do(context.Background(),
		redundancy.WithQuorum(2),
		redundancy.WithCollectOutcomes(&outs),
	)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	wins := 0
	for _, o := range outs {
		if o.Err == nil {
			wins++
		}
	}
	fmt.Println(res.Value, wins)
	// Output: 42 2
}

// A Group tracks per-replica latency and replicates each operation to the
// k best replicas, as the paper's DNS experiment does.
func ExampleGroup() {
	g := redundancy.NewStrategyGroup[string](redundancy.Fixed{
		Copies:    2,
		Selection: redundancy.SelectRanked,
	})
	g.Add("replica-a", func(ctx context.Context) (string, error) { return "a", nil })
	g.Add("replica-b", func(ctx context.Context) (string, error) { return "b", nil })
	g.Add("replica-c", func(ctx context.Context) (string, error) { return "c", nil })

	res, err := g.Do(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(res.Launched, g.Len())
	// Output: 2 3
}

// A Ring shards the keyspace across backends by consistent hashing —
// the paper's §2.2 storage placement — and runs each call redundantly
// over its key's primary + successor shards, through the same engine
// and options as Group.Do.
func ExampleNewRing() {
	r := redundancy.NewRing[string, string](redundancy.Fixed{Copies: 2})
	for _, shard := range []string{"a", "b", "c", "d"} {
		r.Add("shard-"+shard, func(ctx context.Context, key string) (string, error) {
			// A real backend would look key up in its partition.
			return "value-of-" + key, nil
		})
	}

	res, err := r.Do(context.Background(), "user:42")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s served by %d of %d shards\n", res.Value, res.Launched, r.Len())
	// Output: value-of-user:42 served by 2 of 4 shards
}
