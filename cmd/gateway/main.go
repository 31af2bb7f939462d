// Command gateway runs the HTTP/JSON front door over a sharded memkv
// cluster, with the self-tuning SLO controller steering per-class
// redundancy. The load governor (-governor) is given to the controller
// only: every read runs one of the controller's strategies, each of which
// the governor gates, and while it is gated the controller clamps every
// class to one copy.
//
// Usage:
//
//	gateway -addr :8080 -shards 127.0.0.1:11311,127.0.0.1:11312
//	gateway -shards … -target-p99 40ms -max-extra-load 0.5
//
// Then:
//
//	curl -X PUT --data-binary hi  localhost:8080/kv/greeting
//	curl -H 'X-SLO-Class: api'    localhost:8080/kv/greeting
//	curl -H 'X-Consistency: quorum' localhost:8080/kv/greeting
//	curl localhost:8080/slo
//
// The shards are cmd/memkv servers.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/gateway"
	"redundancy/internal/memkv"
	"redundancy/internal/slo"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		shards       = flag.String("shards", "", "comma-separated memkv shard addresses (required)")
		replication  = flag.Int("replication", 2, "placement copies per key")
		writeQuorum  = flag.Int("write-quorum", 0, "write quorum (0 = write-all)")
		targetP99    = flag.Duration("target-p99", 50*time.Millisecond, "SLO controller p99 target")
		maxExtraLoad = flag.Float64("max-extra-load", 0.5, "SLO controller extra-load budget (copies/op; 0 = uncapped)")
		interval     = flag.Duration("slo-interval", time.Second, "SLO control period")
		govThreshold = flag.Float64("governor", core.DefaultGovernorThreshold, "governor gate (in-flight copies per replica; 0 disables)")
		timeout      = flag.Duration("shard-timeout", 2*time.Second, "per-shard dial/IO timeout")
	)
	flag.Parse()
	if *shards == "" {
		fmt.Fprintln(os.Stderr, "gateway: -shards is required")
		os.Exit(2)
	}

	var backends []memkv.Backend
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			backends = append(backends, memkv.NewMuxClient(a, *timeout))
		}
	}

	ctr := core.NewCounters()
	var gov *core.Governor
	if *govThreshold > 0 {
		gov = core.NewGovernor(*govThreshold, 0)
	}
	ctl := slo.New(slo.Target{P99: *targetP99, MaxExtraLoad: *maxExtraLoad}, slo.Config{
		Counters: ctr,
		Governor: gov,
		Interval: *interval,
	})
	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication:  *replication,
		WriteQuorum:  *writeQuorum,
		ReadStrategy: ctl,
		Observer:     ctr,
	}, backends...)
	defer sc.Close()

	ctl.Start()
	defer ctl.Stop()

	gw := gateway.New(gateway.Config{
		Client:     sc,
		Controller: ctl,
		Counters:   ctr,
	})
	srv := &http.Server{Addr: *addr, Handler: gw}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("gateway listening on %s over %d shards (p99 target %v, budget %.2f)\n",
		*addr, len(backends), *targetP99, *maxExtraLoad)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case <-sig:
		fmt.Println("gateway: shutting down")
		srv.Close()
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "gateway: %v\n", err)
		os.Exit(1)
	}
}
