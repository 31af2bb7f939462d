// Command memkv runs a memkv key-value server (internal/memkv's frame
// protocol; connect with memkv.MuxClient or cmd/gateway), the live
// substrate for the §2.3 experiment and the kvreplica example.
//
// Usage:
//
//	memkv -addr 127.0.0.1:11311
//	memkv -addr 127.0.0.1:11311 -delay-ms 5   # inject 5 ms service delay
//
// The optional fixed delay makes redundancy's effect visible in demos: run
// one slow and one fast instance and read through a ShardedClient that
// places every key on both.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"redundancy/internal/memkv"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:11311", "listen address")
		delayMs = flag.Float64("delay-ms", 0, "artificial service delay per request (milliseconds)")
	)
	flag.Parse()

	srv := memkv.NewServer(nil)
	if *delayMs > 0 {
		d := time.Duration(*delayMs * float64(time.Millisecond))
		srv.Delay = func() time.Duration { return d }
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memkv: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("memkv listening on %s (delay %.1f ms)\n", bound, *delayMs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("memkv: shutting down")
	srv.Close()
}
