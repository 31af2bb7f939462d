package cluster

import (
	"testing"

	"redundancy/internal/dist"
)

// base returns the paper's base configuration (Figure 5) at reduced request
// count for test speed.
func base() Config {
	return Config{
		Servers: 4, Clients: 10, Files: 2000,
		FileSize:   dist.Deterministic{V: 4096},
		CacheRatio: 0.1,
		Copies:     1,
		Load:       0.2,
		Requests:   20000,
		Seed:       42,
	}
}

func runPair(t *testing.T, cfg Config) (one, two *Result) {
	t.Helper()
	cfg.Copies = 1
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Copies = 2
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r1, r2
}

func TestReplicationHelpsAtLowLoad(t *testing.T) {
	cfg := base()
	cfg.Load = 0.1
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() >= r1.Latency.Mean() {
		t.Errorf("replication did not help mean at 10%% load: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
	if r2.Latency.P999() >= r1.Latency.P999() {
		t.Errorf("replication did not help 99.9th at 10%% load: %g vs %g",
			r2.Latency.P999(), r1.Latency.P999())
	}
}

func TestReplicationHurtsAtHighLoad(t *testing.T) {
	cfg := base()
	cfg.Load = 0.45
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() <= r1.Latency.Mean() {
		t.Errorf("replication should hurt beyond the threshold: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
}

func TestCacheRatioControlsHitRate(t *testing.T) {
	cfg := base()
	cfg.CacheRatio = 0.01
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate > 0.1 {
		t.Errorf("hit rate %g with 1%% cache, want small", r.HitRate)
	}
	cfg.CacheRatio = 2
	r, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.HitRate < 0.99 {
		t.Errorf("hit rate %g with cache larger than data, want ~1", r.HitRate)
	}
}

func TestInMemoryReplicationNoBenefit(t *testing.T) {
	// Figure 11: with everything cache-resident, service times are tiny
	// and deterministic; client-side overhead eats the benefit.
	cfg := base()
	cfg.CacheRatio = 2
	cfg.Load = 0.3
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() < r1.Latency.Mean()*0.97 {
		t.Errorf("in-memory replication should not help mean: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
}

func TestInMemoryMuchFasterThanDisk(t *testing.T) {
	cfg := base()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CacheRatio = 2
	rm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Latency.Mean() > r.Latency.Mean()/5 {
		t.Errorf("in-memory mean %g not much faster than disk %g",
			rm.Latency.Mean(), r.Latency.Mean())
	}
}

func TestLargeFilesKillTheBenefit(t *testing.T) {
	// Figure 10: 400 KB files make the per-copy transfer cost significant.
	cfg := base()
	cfg.FileSize = dist.Deterministic{V: 400 * 1024}
	cfg.Files = 500
	cfg.Load = 0.3
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() < r1.Latency.Mean()*0.95 {
		t.Errorf("large-file replication should not help mean at 30%% load: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
}

func TestEC2NoiseAmplifiesBenefit(t *testing.T) {
	// Figure 9: higher service variance => larger replication win.
	cfg := base()
	cfg.Load = 0.15
	r1, r2 := runPair(t, cfg)
	gain := r1.Latency.Mean() / r2.Latency.Mean()

	cfg.EC2Noise = true
	n1, n2 := runPair(t, cfg)
	noisyGain := n1.Latency.Mean() / n2.Latency.Mean()
	if noisyGain <= gain {
		t.Errorf("EC2 noise should amplify the win: %g (noisy) vs %g (base)", noisyGain, gain)
	}
	if noisyGain < 1.3 {
		t.Errorf("EC2 mean improvement %gx, paper reports ~2x", noisyGain)
	}
}

func TestSmallFilesBehaveLikeBase(t *testing.T) {
	// Figure 6: 0.04 KB files — seek still dominates, same story.
	cfg := base()
	cfg.FileSize = dist.Deterministic{V: 40}
	cfg.Load = 0.1
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() >= r1.Latency.Mean() {
		t.Errorf("tiny-file replication should help at low load: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
}

func TestParetoFileSizesBehaveLikeBase(t *testing.T) {
	// Figure 7: Pareto sizes with 4 KB mean — same story as base.
	cfg := base()
	cfg.FileSize = dist.ParetoMean(2.5, 4096)
	cfg.Load = 0.1
	r1, r2 := runPair(t, cfg)
	if r2.Latency.Mean() >= r1.Latency.Mean() {
		t.Errorf("Pareto-size replication should help at low load: %g vs %g",
			r2.Latency.Mean(), r1.Latency.Mean())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := base()
	cfg.Requests = 5000
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.HitRate != b.HitRate {
		t.Error("same-seed runs diverged")
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Servers = 1 },
		func(c *Config) { c.Clients = 0 },
		func(c *Config) { c.Files = 0 },
		func(c *Config) { c.FileSize = nil },
		func(c *Config) { c.CacheRatio = -1 },
		func(c *Config) { c.Copies = 3 },
		func(c *Config) { c.Copies = 0 },
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 1 },
		func(c *Config) { c.Requests = 0 },
	}
	for i, mut := range muts {
		cfg := base()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestResponseNeverFasterThanPhysics(t *testing.T) {
	cfg := base()
	cfg.Requests = 5000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw := Defaults()
	floor := 2*hw.PropDelay + hw.HitCPU + 4096/hw.ServerNICBW + 4096/hw.ClientNICBW + hw.ClientCPU
	if r.Latency.Min() < floor*0.999 {
		t.Errorf("min latency %g below physical floor %g", r.Latency.Min(), floor)
	}
}
