package main

import (
	"os"
	"path/filepath"
	"testing"
)

// One short run of each kind end to end: an untraced closed loop with
// writes, and a traced open loop through the gateway with its ladder,
// cross-checks and span file. Run with -race this is also the check that
// the load generator's goroutines share nothing they should not.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the stack and runs for several seconds")
	}
	e2e, err := runBenchmark(workloadByName("gw_put_get_mix"), 3, 1, false, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 100 {
		t.Errorf("gw_put_get_mix: correct=%v, %d of %d failed", e2e.Correct, e2e.Failed, e2e.Attempted)
	}
	bounded := []string{"setup_s", "allocs_per_op", "alloc_bytes_per_op", "copies_per_op"}
	unbounded := []string{"ops_s", "lat_p50_us", "lat_p99_us", "lat_p999_us", "cpu_us_per_op"}
	for _, name := range bounded {
		if m, ok := e2e.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("gw_put_get_mix: metric %s = %+v", name, m)
		}
	}
	if len(e2e.Metrics) != len(bounded) {
		t.Errorf("gw_put_get_mix: result carries %d metrics, want the %d with a bound", len(e2e.Metrics), len(bounded))
	}
	if got := e2e.Metrics["copies_per_op"].Value; got != 2 {
		t.Errorf("gw_put_get_mix: copies_per_op = %v, want 2 (the default strategy)", got)
	}

	out := t.TempDir()
	traced, err := runBenchmark(workloadByName("gw_get_stall_hedged"), 3, 3, true, 2, out)
	if err != nil {
		t.Fatal(err)
	}
	if !traced.Correct || traced.Failed != 0 {
		t.Errorf("gw_get_stall_hedged traced: correct=%v, %d of %d failed", traced.Correct, traced.Failed, traced.Attempted)
	}
	for _, name := range append(unbounded, "mux.rtt_us", "store.get_ns", "gateway.handler_us", "loadgen.sched_lag_p99_us") {
		if m, ok := traced.Metrics[name]; !ok || m.Value <= 0 || m.Unit == "" {
			t.Errorf("gw_get_stall_hedged traced: metric %s = %+v", name, m)
		}
	}
	for _, name := range bounded {
		if _, ok := traced.Metrics[name]; ok {
			t.Errorf("gw_get_stall_hedged traced: result carries the end-to-end metric %s", name)
		}
	}
	if got := traced.Metrics["server.stall_share"].Value; got < 0.02 || got > 0.08 {
		t.Errorf("server.stall_share = %v, want about 0.05", got)
	}
	if got := traced.Metrics["core.hedges_fired_per_op"].Value; got <= 0 || got > 0.2 {
		t.Errorf("core.hedges_fired_per_op = %v, want a few in a hundred", got)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-gw_get_stall_hedged.json")); err != nil {
		t.Errorf("span file: %v", err)
	}
}
