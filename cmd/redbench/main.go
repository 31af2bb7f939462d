// Command redbench regenerates the tables and figures of "Low Latency via
// Redundancy" (Vulimiri et al., CoNEXT 2013) from this repository's
// reimplementation.
//
// Usage:
//
//	redbench -list
//	redbench -fig fig5
//	redbench -fig all -scale 0.2 -seed 7
//
// Scale 1.0 is the documented full run (minutes); smaller scales trade
// Monte-Carlo noise for speed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"redundancy/internal/exp"
)

func main() {
	var (
		fig   = flag.String("fig", "", "experiment to run (see -list), or 'all'")
		scale = flag.Float64("scale", 1.0, "sample-size multiplier (0.01-1.0+)")
		seed  = flag.Int64("seed", 42, "random seed")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list || *fig == "" {
		fmt.Println("experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-10s %s\n", e.Name, e.Desc)
		}
		if *fig == "" && !*list {
			fmt.Println("\nrun one with: redbench -fig <name> (or -fig all)")
		}
		return
	}

	opts := exp.Options{Scale: *scale, Seed: *seed}
	var targets []exp.Experiment
	if *fig == "all" {
		targets = exp.All()
	} else {
		e, ok := exp.ByName(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "redbench: unknown experiment %q (use -list)\n", *fig)
			os.Exit(2)
		}
		targets = []exp.Experiment{e}
	}

	for _, e := range targets {
		start := time.Now()
		tables, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "redbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		// Timing goes to stderr, so stdout at a fixed scale and seed is
		// byte-stable.
		fmt.Fprintf(os.Stderr, "[%s completed in %v at scale %g]\n", e.Name, time.Since(start).Round(time.Millisecond), *scale)
	}
}
