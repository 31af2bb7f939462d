// quorumread: the quorum knob of the unified call API against three
// live memkv servers over real TCP. Every read goes through the same
// ShardedClient (Replication 3: every key on every server); what
// changes per call is only an option:
//
//   - the default Get is first-response-wins (lowest latency, one
//     replica's word),
//   - Get(..., redundancy.WithQuorum(2)) asks all 3 replicas, waits
//     until 2 answered and returns the newer of their versions, handing
//     a stale replica to read repair: it masks one failed or stale
//     replica at a modest latency premium,
//   - and the premium stays modest precisely *because* of redundancy: the
//     2nd-of-3 response dodges the worst straggler just as the 1st does.
//
// Every answer carries its version all the same: there is one read, and
// GetResult's value is a memkv.Versioned. The example prints each
// quorum voter's version, then kills one replica to show a quorum-2 read
// surviving, and kills a second to show the typed failure:
// errors.Is(err, redundancy.ErrQuorumUnreachable) with per-replica
// detail in the joined ReplicaErrors.
//
// Run with: go run ./examples/quorumread
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"redundancy"
	"redundancy/internal/memkv"
)

func main() {
	// Three in-process servers, each with mild jitter plus occasional
	// 40 ms stalls (4% of requests) — the straggler pattern replication
	// is built for. At 4%, one-of-three and two-of-three reads almost
	// never meet a stall at the p99, while three-of-three almost always
	// does: the quorum's consistency premium is small as long as spare
	// replicas remain.
	servers := make([]*memkv.Server, 3)
	clients := make([]memkv.Backend, 3)
	for i := range servers {
		r := rand.New(rand.NewSource(7 + int64(i))) // one per server: each calls Delay from its own goroutine
		srv := memkv.NewServer(nil)
		srv.Delay = func() time.Duration {
			if r.Float64() < 0.04 {
				return 40 * time.Millisecond
			}
			return time.Duration(1+r.Intn(3)) * time.Millisecond
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		servers[i] = srv
		clients[i] = memkv.NewMuxClient(addr.String(), time.Second)
	}

	rc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  3,
		ReadStrategy: redundancy.Fixed{Copies: 3},
	}, clients...)
	defer rc.Close()
	ctx := context.Background()

	if _, err := rc.PutVersioned(ctx, "user:42", []byte(`{"name":"ada"}`), 0); err != nil {
		panic(err)
	}

	const reads = 400
	measure := func(opts ...redundancy.CallOption) (p50, p99 time.Duration) {
		lats := make([]time.Duration, 0, reads)
		for i := 0; i < reads; i++ {
			res, err := rc.GetResult(ctx, "user:42", opts...)
			if err != nil {
				panic(err)
			}
			lats = append(lats, res.Latency)
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[reads/2], lats[reads*99/100]
	}

	p50First, p99First := measure()
	p50Q2, p99Q2 := measure(redundancy.WithQuorum(2))
	p50Q3, p99Q3 := measure(redundancy.WithQuorum(3))

	fmt.Println("same client, per-read quorums (3 replicas, 4% 40ms stalls):")
	fmt.Printf("  first response   p50 %6s  p99 %6s\n", p50First.Round(time.Millisecond), p99First.Round(time.Millisecond))
	fmt.Printf("  WithQuorum(2)    p50 %6s  p99 %6s   <- newer of 2 answers: masks one failed or stale replica\n", p50Q2.Round(time.Millisecond), p99Q2.Round(time.Millisecond))
	fmt.Printf("  WithQuorum(3)    p50 %6s  p99 %6s   <- scatter-gather worst case\n", p50Q3.Round(time.Millisecond), p99Q3.Round(time.Millisecond))

	// A quorum-2 read names its voters, and the version each holds, when
	// asked; the newest of those versions is the read's.
	var outs []redundancy.Outcome[memkv.Versioned]
	if _, err := rc.GetResult(ctx, "user:42", redundancy.WithQuorum(2),
		redundancy.WithCollectOutcomes(&outs)); err != nil {
		panic(err)
	}
	fmt.Println("\nquorum-2 voters (completion order):")
	for _, o := range outs {
		if o.Err == nil {
			fmt.Printf("  copy %d answered %q at version %d after %s\n", o.Index, o.Value.Value, o.Value.Version, o.Latency.Round(time.Millisecond))
		}
	}

	// One replica down: 2-of-3 still answers.
	servers[0].Close()
	if _, err := rc.Get(ctx, "user:42", redundancy.WithQuorum(2)); err != nil {
		panic(err)
	}
	fmt.Println("\none replica down: WithQuorum(2) still answers")

	// Two down: the quorum is unreachable, and the error says so — typed,
	// with per-replica detail.
	servers[1].Close()
	_, err := rc.Get(ctx, "user:42", redundancy.WithQuorum(2))
	fmt.Printf("two replicas down: quorum unreachable = %v\n", errors.Is(err, redundancy.ErrQuorumUnreachable))
	var re redundancy.ReplicaError
	if errors.As(err, &re) {
		fmt.Printf("first failing replica: %s\n", re.Name)
	}
}
