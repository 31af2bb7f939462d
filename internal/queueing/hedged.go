// Hedged variants of the replication queueing model: instead of
// enqueueing k copies at arrival (queueing.Run), each request runs a
// core.Strategy — the value the engine itself runs — that decides how
// many copies to launch and when: Fixed (a caller-guessed delay),
// AdaptiveHedge (a quantile of each server's own copy latencies),
// FullReplicate (every copy at once), or any governed strategy
// (core.LoadAwareWith, an slo.ClassStrategy), whose Governor is fed the
// model's utilization.
//
// Unlike Run's single-pass Lindley recurrence, hedge copies arrive
// *later* than their request, interleaved with subsequent arrivals, so
// this model runs on the discrete-event engine (internal/sim): arrival,
// hedge-launch, and completion events execute in virtual-time order,
// which keeps every server FCFS-correct and makes each server's digest
// causal (it only ever reflects copies that have completed).
//
// As in Run, copies are NOT cancelled when a sibling completes (the
// paper's worst case): every launched copy consumes its full service
// time, and its latency lands in its server's core.LatDigest, the
// digest the engine keeps per replica.
package queueing

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/dist"
	"redundancy/internal/sim"
	"redundancy/internal/stats"
)

// HedgedConfig describes one run of the hedged queueing model.
type HedgedConfig struct {
	// Servers is N, the number of identical FCFS servers.
	Servers int
	// Load is the base per-server utilization of the unreplicated
	// system. The realized utilization is Load * (mean copies per
	// request), so a strategy that launches k copies at once requires
	// Load < 1/k.
	Load float64
	// Service is the service-time distribution (typically unit mean).
	Service dist.Dist
	// Strategy decides each request's copies, as it does a call's in the
	// engine: Fanout (clamped to Servers) how many, ScheduleInto when,
	// over the digests of the servers already chosen. A governed
	// strategy's Governor (core.GovernorOf) samples in-flight copies per
	// server at every arrival. Nil runs one copy per request. A strategy
	// that carries state (a Governor) must be fresh for every run.
	Strategy core.Strategy
	// Requests is the number of measured requests.
	Requests int
	// Warmup is the number of initial requests discarded while queues
	// fill; defaults to Requests/10.
	Warmup int
	// Seed seeds all randomness.
	Seed int64
}

// HedgedResult is the outcome of one hedged run.
type HedgedResult struct {
	// Sample holds the measured response times.
	Sample *stats.Sample
	// HedgeRate is the mean number of copies beyond the first per
	// measured request, so mean copies per request is 1 + HedgeRate (for
	// two copies, the fraction of requests that launched a second).
	HedgeRate float64
	// GatedRate is the fraction of measured requests whose copies the
	// strategy's Governor withheld.
	GatedRate float64
}

// Unit is the duration a strategy sees for one model time unit: times
// are scaled by it on the way into a digest and out of a schedule. The
// digest's log-scale range (1 ns to ~292 years) dwarfs any simulated
// latency, and its 12.5% bin width is the only approximation introduced.
const Unit = time.Second

func (c HedgedConfig) validate() error {
	if c.Servers < 2 {
		return fmt.Errorf("queueing: hedged model needs Servers >= 2, got %d", c.Servers)
	}
	if c.Service == nil {
		return fmt.Errorf("queueing: Service distribution is required")
	}
	if c.Requests < 1 {
		return fmt.Errorf("queueing: Requests must be >= 1, got %d", c.Requests)
	}
	maxLoad := 1.0
	if k := c.fanout(); k > 1 {
		// An ungoverned strategy that launches every copy at once
		// multiplies the load by k; a governed one sheds its own
		// replication load, and a hedged one launches only on the tail.
		if core.GovernorOf(c.Strategy) == nil && len(c.Strategy.ScheduleInto(make(core.DigestList, k), make([]time.Duration, k))) == 0 {
			maxLoad = 1 / float64(k)
		}
	}
	if c.Load <= 0 || c.Load >= maxLoad {
		return fmt.Errorf("queueing: Load must be in (0, %g) for %v, got %g", maxLoad, c.Strategy, c.Load)
	}
	return nil
}

// fanout is the copies the strategy asks for, clamped to [1, Servers].
func (c HedgedConfig) fanout() int {
	if c.Strategy == nil {
		return 1
	}
	k, _ := c.Strategy.Fanout()
	return max(1, min(k, c.Servers))
}

// request is one arrival's copies, and the core.Digests view its
// strategy schedules over: the digests of the servers of the copies
// launched so far, in launch order, then nil for copies not yet placed.
type request struct {
	i       int
	k       int     // copies this request may launch
	t       float64 // arrival time
	done    float64 // earliest completion among its launched copies
	servers []int
	digests []core.LatDigest
}

func (r *request) Len() int { return r.k }

func (r *request) At(i int) *core.LatDigest {
	if i < len(r.servers) {
		return &r.digests[r.servers[i]]
	}
	return nil
}

// RunHedged simulates the hedged model and returns the measured
// response-time sample and the realized hedge rate.
func RunHedged(cfg HedgedConfig) (HedgedResult, error) {
	if err := cfg.validate(); err != nil {
		return HedgedResult{}, err
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = cfg.Requests / 10
	}

	// Separate streams, as in Run: the arrival process is identical
	// across strategies with the same seed, pairing comparison arms.
	arrivals := rand.New(rand.NewSource(cfg.Seed))
	work := rand.New(rand.NewSource(cfg.Seed ^ 0x5e3779b97f4a7c15))

	// Each server's digest starts warm with DefaultHedgeMinSamples
	// unloaded service times, from a stream of its own so the other two
	// are untouched. This is the model's ProbeAll: the live controller
	// only ever tightens over replicas it has already measured.
	digests := make([]core.LatDigest, cfg.Servers)
	warm := rand.New(rand.NewSource(cfg.Seed ^ 0x2545f4914f6cdd1d))
	for s := range digests {
		for range core.DefaultHedgeMinSamples {
			digests[s].Observe(time.Duration(cfg.Service.Sample(warm) * float64(Unit)))
		}
	}

	meanS := cfg.Service.Mean()
	lambda := cfg.Load * float64(cfg.Servers) / meanS

	eng := sim.NewEngine(cfg.Seed)
	lastDep := make([]float64, cfg.Servers)
	sample := stats.NewSample(cfg.Requests)
	k := cfg.fanout()
	sched := make([]time.Duration, k)
	gov := core.GovernorOf(cfg.Strategy)
	extra, gated := 0, 0
	total := warmup + cfg.Requests
	issued := 0
	inflight := 0

	// enqueue places one copy on server s at the current virtual time
	// and returns its completion time (FCFS Lindley step). Events run in
	// time order, so lastDep is always up to date when read. The copy
	// counts as in flight until its completion, when its latency lands
	// in its server's digest.
	enqueue := func(s int, svc float64) float64 {
		launch := eng.Now()
		start := max(launch, lastDep[s])
		done := start + svc
		lastDep[s] = done
		inflight++
		eng.At(done, func() {
			inflight--
			digests[s].Observe(time.Duration((done - launch) * float64(Unit)))
		})
		return done
	}

	// launch starts r's next copy now, on a server none of its copies
	// uses. If a copy is left and r will not be done by its delay — the
	// strategy's schedule over the servers placed so far — it arms that
	// launch; otherwise it arms r's completion.
	var launch func(r *request)
	launch = func(r *request) {
		j := len(r.servers)
		s := work.Intn(cfg.Servers - j)
		for _, u := range slices.Sorted(slices.Values(r.servers)) {
			if s >= u {
				s++
			}
		}
		r.servers = append(r.servers, s)
		if c := enqueue(s, cfg.Service.Sample(work)); j == 0 || c < r.done {
			r.done = c
		}
		if j+1 < r.k {
			delay := 0.0
			if out := cfg.Strategy.ScheduleInto(r, sched[:r.k]); len(out) > 0 {
				delay = max(0, float64(out[min(j+1, len(out)-1)])/float64(Unit))
			}
			if now := eng.Now(); r.done-now > delay {
				eng.At(now+delay, func() { launch(r) })
				return
			}
		}
		eng.At(r.done, func() {
			if r.i >= warmup {
				sample.Add(r.done - r.t)
				extra += len(r.servers) - 1
			}
		})
	}

	var arrive func()
	arrive = func() {
		r := &request{i: issued, k: k, t: eng.Now(), servers: make([]int, 0, k), digests: digests}
		issued++
		if gov != nil {
			// As KeyedGroup.plan does: one utilization sample per
			// operation, taken before its own copies enqueue, then the
			// gate on the clamped fan-out.
			gov.Observe(float64(inflight) / float64(cfg.Servers))
			if r.k = gov.Allow(k); r.k < k && r.i >= warmup {
				gated++
			}
		}
		launch(r)
		if issued < total {
			eng.After(arrivals.ExpFloat64()/lambda, arrive)
		}
	}
	eng.After(arrivals.ExpFloat64()/lambda, arrive)
	eng.Run()

	return HedgedResult{
		Sample:    sample,
		HedgeRate: float64(extra) / float64(cfg.Requests),
		GatedRate: float64(gated) / float64(cfg.Requests),
	}, nil
}
