// Command bench is the repository's end-to-end benchmark: it boots the
// live stack in this process (three memkv servers on loopback TCP, the
// v2 mux clients, a ShardedClient, and for the gw_* workloads the HTTP
// gateway behind a real listener), preloads it, drives one named
// workload for a fixed window, checks every reply, and prints every
// metric by name with its unit. README.md beside this file is the
// glossary.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	setupCycles          = 5 // set-ups per run; setup_s is their median
	closedCallersPerProc = 8
	warmup               = 2 * time.Second
	// spanDir is where a traced run writes its spans, relative to the
	// checkout's root, where run.sh starts the benchmark.
	spanDir = "bench/out"
	// maxDrain is how long after the window's end the open loop's last
	// reply may arrive. Twice the longest injected stall is a queue that
	// emptied; more is a backlog that was still growing.
	maxDrain = 250 * time.Millisecond
)

type metric struct {
	name  string
	value float64
	unit  string
	// bounded marks the end-to-end metrics that BENCHMARK.json gives a
	// bound: the ones steady enough on a shared machine for a driver to
	// hold a later change to. The others are printed by every run and
	// reported, without a bound, among the per-layer metrics of a traced
	// run. AA.md has the measurements behind the split.
	bounded bool
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: lib_get_k1, lib_get_k2, gw_get_stall_hedged or gw_put_get_mix")
	seed := flag.Uint64("seed", 1, "seed for keys, operation mix, arrival times and stall choice")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to the out directory")
	quick := flag.Bool("quick", false, "three-second smoke run (same as -seconds 3)")
	flag.Parse()
	if *quick {
		*seconds = 3
	}
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: need -workload, one of:")
		for i := range workloads {
			fmt.Fprintf(os.Stderr, " %s", workloads[i].name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	// The open loop has as many connections as processors. A closed loop
	// with that few callers leaves the processors idle two fifths of the
	// time, waiting for wake-ups, and then measures the hypervisor's
	// wake-up cost; eight callers per processor keep them busy, so that
	// throughput is processor time per operation.
	callers := procs
	if wl.openRate == 0 {
		callers = closedCallersPerProc * procs
	}

	res, err := runBenchmark(wl, *seed, *seconds, *trace != 0, callers, spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// counts is the program's own counters at one instant.
type counts struct {
	ops, launched, cancelled int64  // core.Counters: engine calls and their copies
	srvRequests, srvStalls   uint64 // the servers' Delay hooks
}

func (s *stack) counts() counts {
	c := counts{ops: s.counters.Ops(), launched: s.counters.LaunchedCopies(), cancelled: s.counters.CancelledCopies()}
	c.srvRequests, c.srvStalls = s.serverCounts()
	return c
}

func (a counts) minus(b counts) counts {
	return counts{a.ops - b.ops, a.launched - b.launched, a.cancelled - b.cancelled, a.srvRequests - b.srvRequests, a.srvStalls - b.srvStalls}
}

// setUp boots the stack, connects the callers and preloads every key,
// and reads one key back through each caller. It is everything a run
// needs before its first operation, and it is timed.
func setUp(wl *workload, seed uint64, callers int, rec *recorder) (*stack, []client, error) {
	s, err := bootStack(wl, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	state := &keyState{seq: make([]uint64, numKeys), ver: make([]uint64, numKeys)}
	clients, err := newClients(wl, s, callers, state, rec)
	if err != nil {
		s.close()
		return nil, nil, err
	}
	if err = s.preload(context.Background(), callers, wl.valueSize); err == nil {
		for c, cl := range clients {
			if !cl.do(c, false) {
				err = fmt.Errorf("caller %d: first read of %s failed", c, keyName(c))
				break
			}
		}
	}
	if err != nil {
		tearDown(s, clients)
		return nil, nil, err
	}
	return s, clients, nil
}

func tearDown(s *stack, clients []client) {
	for _, cl := range clients {
		cl.close()
	}
	s.close()
}

func runBenchmark(wl *workload, seed uint64, seconds int, traced bool, callers int, outDir string) (*result, error) {
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// Set-up is repeated and its median taken: one set-up is a third of a
	// second of dialing, preloading and page faults, and varies by a
	// third from run to run. The last stack built is the one measured.
	var s *stack
	var clients []client
	setups := make([]float64, 0, setupCycles)
	for i := 0; i < setupCycles; i++ {
		if s != nil {
			tearDown(s, clients)
		}
		t0 := time.Now()
		var err error
		s, clients, err = setUp(wl, seed, callers, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { tearDown(s, clients) }()

	// Stalls start only now, as Server.Delay's contract wants: the hook
	// was installed before Listen and is switched on by a flag.
	s.arm(true)
	warm := run(wl, clients, mix64(seed), warmup)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed", warm.failed, warm.attempted)
	}
	// What a run waits before its first timed operation: one set-up and
	// the warm-up. The warm-up has a fixed length, which also keeps the
	// figure from swinging with the machine's mood as far as a bare
	// third of a second would.
	setupS := median(setups) + warm.elapsed.Seconds()

	if !traced {
		before := s.counts()
		w := run(wl, clients, seed, time.Duration(seconds)*time.Second)
		delta := s.counts().minus(before)
		ms, problems := endToEnd(wl, &w, delta, setupS)
		return report(wl, &w, ms, problems, true), nil
	}

	// A traced run measures a third of the time untraced, the same again
	// with spans on, and spends the rest on the ladder.
	third := time.Duration(max(seconds/3, 1)) * time.Second
	before := s.counts()
	ref := run(wl, clients, seed, third)
	refDelta := s.counts().minus(before)
	before = s.counts()
	rec.on.Store(true)
	w := run(wl, clients, seed, third)
	rec.on.Store(false)
	quiet := rec.quiesce(time.Second)
	// A copy cancelled after it was written may still be on its way to a
	// server; let it arrive before the servers' counters are read.
	time.Sleep(50 * time.Millisecond)
	delta := s.counts().minus(before)
	spans := rec.take()
	wt := analyze(spans, wl.hedgeDelay())
	s.arm(false)
	lad, err := runLadder(wl, s, rec)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+wl.name+".json"), wl.name, seed, rec.epoch, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	// The traced window must be as correct as any other; its figures are
	// not reported. The untraced window before it gives the end-to-end
	// metrics that carry no bound.
	_, problems := endToEnd(wl, &w, delta, setupS)
	ms, more := endToEnd(wl, &ref, refDelta, setupS)
	problems = append(problems, more...)
	layers, more := perLayer(wl, &ref, &w, delta, &wt, &lad)
	ms = append(ms, layers...)
	problems = append(problems, more...)
	if !quiet {
		problems = append(problems, "copies still running a second after the traced window")
	}
	return report(wl, &w, ms, problems, false), nil
}

// endToEnd derives the end-to-end metrics from an untraced window, and
// lists what, if anything, makes the run invalid.
func endToEnd(wl *workload, w *window, delta counts, setupS float64) ([]metric, []string) {
	var problems []string
	p50, _ := w.latency(0.50)
	p99, beyond99 := w.latency(0.99)
	p999, beyond999 := w.latency(0.999)
	if beyond99 < minBeyond || beyond999 < minBeyond {
		// A short smoke run; the figures are printed but are not tails.
		fmt.Fprintf(os.Stderr, "bench: only %d samples beyond p99 and %d beyond p999; %d are needed\n", beyond99, beyond999, minBeyond)
	}
	if w.failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed or returned a wrong value", w.failed, w.attempted))
	}
	if delta.ops == 0 {
		problems = append(problems, "core.Counters saw no operation")
		delta.ops = 1
	}
	if wl.openRate > 0 {
		if ok := float64(w.ok()); ok < 0.99*float64(wl.openRate)*w.elapsed.Seconds() {
			problems = append(problems, fmt.Sprintf("completed %.0f operations in %v, under 99%% of the %d/s offered", ok, w.elapsed, wl.openRate))
		}
		if w.drain > maxDrain {
			problems = append(problems, fmt.Sprintf("last reply came %v after the window ended: the backlog was still growing", w.drain))
		}
	}
	ok := float64(max(w.ok(), 1))
	return []metric{
		{"setup_s", setupS, "s", true},
		{"allocs_per_op", float64(w.after.mallocs-w.before.mallocs) / ok, "allocs", true},
		{"alloc_bytes_per_op", float64(w.after.bytes-w.before.bytes) / ok, "B", true},
		{"copies_per_op", float64(delta.launched) / float64(delta.ops), "copies", true},
		{"ops_s", w.opsPerSecond(), "op/s", false},
		{"lat_p50_us", p50, "us", false},
		{"lat_p99_us", p99, "us", false},
		{"lat_p999_us", p999, "us", false},
		{"cpu_us_per_op", w.sliceMedian(func(s *slice) float64 { return float64(s.cpuUS) / float64(max(s.ok, 1)) }), "us", false},
	}, problems
}

// perLayer derives the per-layer metrics of a traced run: from the
// traced window's spans and counters, from the untraced window before
// it, and from the ladder. It also cross-checks the counters that count
// the same thing in two places.
func perLayer(wl *workload, ref, w *window, delta counts, wt *windowTrace, l *ladder) ([]metric, []string) {
	var problems []string
	ops := float64(max(delta.ops, 1))
	// The engine's counters and the Backend wrapper's spans count the
	// same read copies at two boundaries; they must agree to the copy.
	if int64(wt.readCopies) != delta.launched {
		problems = append(problems, fmt.Sprintf("copy spans (%d) and core.Counters launched copies (%d) disagree", wt.readCopies, delta.launched))
	}
	// The servers see every copy of either kind except those cancelled
	// before they were written.
	if got, most := int64(delta.srvRequests), int64(wt.allCopies); got > most || got < most-int64(wt.cancelled) {
		problems = append(problems, fmt.Sprintf("servers read %d requests; the wrappers saw %d copies, %d of them cancelled", got, most, wt.cancelled))
	}

	var overhead float64
	var lagP99 uint32
	if wl.openRate > 0 {
		// On an open loop throughput is the offered rate either way;
		// what tracing costs shows in the latency.
		rp50, _ := ref.latency(0.5)
		tp50, _ := w.latency(0.5)
		overhead = 100 * (tp50 - rp50) / rp50
		lagP99, _ = percentile(w.schedLagNS, 0.99)
	} else {
		overhead = 100 * (ref.opsPerSecond() - w.opsPerSecond()) / ref.opsPerSecond()
	}
	extraCopies := float64(max(wt.readCopies-int(delta.ops), 1))
	gatewaySelf := 0.0
	if wl.viaGateway {
		gatewaySelf = wt.handlerSelfUS - l.shardedSelfUS
	}
	return []metric{
		{"loadgen.sched_lag_p99_us", float64(lagP99) / 1e3, "us", false},
		{"loadgen.backlog_max", float64(w.backlogMax), "count", false},
		{"loadgen.trace_overhead_pct", overhead, "%", false},
		{"http.self_us", wt.httpSelfUS, "us", false},
		{"gateway.handler_us", wt.handlerUS, "us", false},
		{"gateway.self_us", gatewaySelf, "us", false},
		{"gateway.allocs_per_req", l.gatewayGetAllocs - l.shardedGetAllocs, "allocs", false},
		{"sharded.get_us", l.shardedGetUS, "us", false},
		{"sharded.put_us", l.shardedPutUS, "us", false},
		{"sharded.self_us", l.shardedSelfUS, "us", false},
		{"sharded.overhead_k1_us", l.shardedK1US - l.muxRTTUS, "us", false},
		{"ring.route_ns", l.ringRouteNS, "ns", false},
		{"ring.route_allocs", l.ringRouteAllocs, "allocs", false},
		{"core.dovalue_k1_ns", l.coreK1NS, "ns", false},
		{"core.dovalue_k2_ns", l.coreK2NS, "ns", false},
		{"core.dovalue_k1_allocs", l.coreK1Allocs, "allocs", false},
		{"core.dovalue_k2_allocs", l.coreK2Allocs, "allocs", false},
		{"core.hedges_fired_per_op", float64(delta.launched-delta.ops) / ops, "copies", false},
		{"core.cancelled_per_op", float64(delta.cancelled) / ops, "copies", false},
		{"core.useful_copy_share", ops / float64(max(delta.launched, 1)), "ratio", false},
		{"core.hedge_fire_lag_us", wt.hedgeFireLagUS, "us", false},
		{"mux.copy_p50_us", wt.copyP50US, "us", false},
		{"mux.copy_p99_us", wt.copyP99US, "us", false},
		{"mux.rtt_us", l.muxRTTUS, "us", false},
		{"mux.allocs_per_get", l.muxGetAllocs, "allocs", false},
		{"mux.loser_completed_share", float64(wt.readCopiesOK-int(delta.ops)) / extraCopies, "ratio", false},
		{"server.requests_per_op", float64(delta.srvRequests) / float64(max(w.ok(), 1)), "count", false},
		{"server.stall_share", float64(delta.srvStalls) / float64(max(delta.srvRequests, 1)), "ratio", false},
		{"server.self_us", l.muxRTTUS - l.storeGetNS/1e3, "us", false},
		{"store.get_ns", l.storeGetNS, "ns", false},
		{"store.put_ns", l.storePutNS, "ns", false},
		{"store.allocs_per_get", l.storeGetAllocs, "allocs", false},
	}, problems
}

// report prints every metric as a table and builds the result line from
// the bounded ones (an untraced run) or from the others (a traced run).
func report(wl *workload, w *window, ms []metric, problems []string, bounded bool) *result {
	loop := fmt.Sprintf("closed loop, %d callers", closedCallersPerProc*runtime.GOMAXPROCS(0))
	if wl.openRate > 0 {
		loop = fmt.Sprintf("open loop, %d req/s over %d connections", wl.openRate, runtime.GOMAXPROCS(0))
	}
	fmt.Printf("workload %s: %s, %d operations in %.3f s, %d failed (fail_share %g)\n",
		wl.name, loop, w.attempted, w.elapsed.Seconds(), w.failed, float64(w.failed)/float64(max(w.attempted, 1)))
	res := &result{Correct: len(problems) == 0, Attempted: max(w.attempted, 1), Failed: w.failed, Metrics: make(map[string]metricValue, len(ms))}
	for _, m := range ms {
		fmt.Printf("  %-28s %16.4f %s\n", m.name, m.value, m.unit)
		if m.bounded == bounded {
			res.Metrics[m.name] = metricValue{m.value, m.unit}
		}
	}
	for _, p := range problems {
		fmt.Printf("INVALID: %s\n", p)
	}
	return res
}
