package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
	"redundancy/internal/slo"
)

// TestGatewaySLOConvergence is the end-to-end control-loop test: a
// gateway over three live memkv shards, every one of which stalls each
// 20th request by 30ms — the paper's independent tail-latency scenario,
// which replica ranking cannot dodge (no replica is durably better).
// A fixed single-copy strategy misses a 15ms p99 target because ~5% of
// reads eat a stall. The controller must observe the miss through the
// live Counters window, walk its hedge quantile down the ladder until
// hedges fire before the stall, and bring the measured p99 inside the
// target — copying the paper's result that a second copy converts the
// tail into the fast path.
func TestGatewaySLOConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end convergence loop")
	}
	const (
		stallEvery = 20
		stall      = 30 * time.Millisecond
		targetP99  = 15 * time.Millisecond
	)

	var backends []memkv.Backend
	for i := 0; i < 3; i++ {
		srv := memkv.NewServer(nil)
		var n atomic.Int64
		// Set before Listen: connection handlers read Delay unsynchronized.
		srv.Delay = func() time.Duration {
			if n.Add(1)%stallEvery == 0 {
				return stall
			}
			return 0
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		backends = append(backends, memkv.NewMuxClient(addr.String(), 5*time.Second))
	}

	ctr := core.NewCounters()
	ctl := slo.New(slo.Target{P99: targetP99, MaxExtraLoad: 2}, slo.Config{
		Counters:         ctr,
		MaxFanout:        2,
		MinWindowSamples: 64,
	})
	sc := memkv.NewShardedClient(memkv.ShardedConfig{
		Replication: 2,
		Observer:    ctr,
	}, backends...)
	t.Cleanup(func() { sc.Close() })
	ts := httptest.NewServer(New(Config{Client: sc, Controller: ctl, Counters: ctr}))
	t.Cleanup(ts.Close)

	const keys = 24
	for i := 0; i < keys; i++ {
		req, _ := http.NewRequest("PUT", fmt.Sprintf("%s/kv/conv/%02d", ts.URL, i),
			strings.NewReader("payload"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed PUT %d = %d", i, resp.StatusCode)
		}
	}

	// One round of load: 240 gateway reads spread over the keyspace,
	// eight clients deep.
	round := func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					resp, err := http.Get(fmt.Sprintf("%s/kv/conv/%02d", ts.URL, (w*30+i)%keys))
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
				}
			}(w)
		}
		wg.Wait()
	}

	defStats := func() slo.ClassStats {
		t.Helper()
		for _, s := range ctl.Stats() {
			if s.Class == slo.DefaultClass {
				return s
			}
		}
		t.Fatal("no default-class stats")
		return slo.ClassStats{}
	}

	// Round 0 establishes the measurement baseline; round 1 produces
	// the first decided window, which must show the single-copy miss
	// the fixed strategy would be stuck with.
	round()
	ctl.Tick()
	round()
	ctl.Tick()
	first := defStats()
	if first.WindowP99 <= targetP99 {
		t.Fatalf("first window p99 %v already under target %v — the stalls are not biting, scenario is vacuous",
			first.WindowP99, targetP99)
	}
	if first.Config.Fanout != 2 {
		t.Fatalf("controller did not tighten after the first missed window: %+v", first)
	}

	good := 0
	for r := 0; r < 30 && good < 2; r++ {
		round()
		ctl.Tick()
		s := defStats()
		t.Logf("round %2d: k=%d q=%.2f window p99=%v extra=%.2f reason=%s",
			r, s.Config.Fanout, s.Config.Quantile,
			s.WindowP99.Round(100*time.Microsecond), s.WindowExtraLoad, s.LastReason)
		if s.WindowP99 > 0 && s.WindowP99 <= targetP99 {
			good++
		} else {
			good = 0
		}
	}
	if good < 2 {
		t.Fatalf("controller never held p99 under %v for two consecutive windows: final %+v",
			targetP99, defStats())
	}
	final := defStats()
	if final.Config.Fanout < 2 || final.Config.Quantile > 0.95 {
		t.Fatalf("converged config %+v did not shift the hedge quantile (want fanout 2, quantile <= 0.95)",
			final.Config)
	}
	if final.Tightens == 0 {
		t.Fatalf("controller claims convergence with zero tighten moves: %+v", final)
	}
}
