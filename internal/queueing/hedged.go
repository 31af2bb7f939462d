// Hedged variants of the replication queueing model, run by the
// engine itself: instead of enqueueing k copies at arrival
// (queueing.Run), each request is a call of a core group, stepped on the
// simulation's virtual time, so the model's launch rule is the product's.
// The group's strategy — the value the engine runs live — decides how
// many copies to launch and when: Fixed (a caller-guessed delay),
// AdaptiveHedge (a quantile of each server's own copy latencies),
// FullReplicate (every copy at once), or any governed strategy
// (core.LoadAwareWith, an slo.ClassStrategy), whose Governor samples the
// copies in flight per server at every arrival and withholds redundant
// copies past its threshold.
//
// The model is the engine on virtual time. Each of the N servers is a
// member of the group whose Starter places a copy on the server's FCFS
// queue (the Lindley recurrence) and completes it as an event of the
// discrete-event engine (internal/sim), whose clock the call reads its
// instants from and arms its hedge timer on (core.KeyedGroup.StepPicked).
// An arrival draws its k distinct servers uniformly at random, in launch
// order; a copy's service time is drawn when it launches. Arrivals, hedge
// timers and completions run in virtual-time order, which keeps every
// server FCFS-correct and makes each server's digest causal: the engine
// folds a copy's latency into its member's digest when it completes.
//
// As in Run, copies are NOT cancelled when a sibling completes (the
// paper's worst case): a server's Cancel refuses, so every launched copy
// consumes its full service time and still counts in the governor until
// it completes.
package queueing

import (
	"fmt"
	"math"
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
	// Strategy is the group's strategy: each request is one call under
	// it, with Fanout (clamped to Servers) copies over servers drawn at
	// random. A governed strategy's Governor (core.GovernorOf) samples
	// in-flight copies per server at every arrival. Nil runs one copy per
	// request. A strategy that carries state (a Governor) must be fresh
	// for every run.
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

// Unit is one model time unit on the engine's clock: the duration a
// strategy's schedule, the servers' digests and a call's latency see
// for it. The digest's log-scale range (1 ns to ~292 years) dwarfs any
// simulated latency, and its 12.5% bin width is the only approximation
// introduced.
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
	// across strategies with the same seed, pairing comparison arms. A
	// copy's server is drawn at its request's arrival and its service time
	// at its launch, the first copy's from work and every later copy's
	// from hedges: a request's first copy draws the same server and
	// service time under every strategy, as in Run's one-copy model.
	arrivals := rand.New(rand.NewSource(cfg.Seed))
	streams := [2]*rand.Rand{
		rand.New(rand.NewSource(cfg.Seed ^ 0x5e3779b97f4a7c15)), // work
		rand.New(rand.NewSource(cfg.Seed ^ 0x61c8864680b583eb)), // hedges
	}
	stream := func(slot int) *rand.Rand { return streams[min(slot, 1)] }
	eng := sim.NewEngine(cfg.Seed)

	// The model's group: one member per server. Each server's digest
	// starts warm with DefaultHedgeMinSamples unloaded service times, from
	// a stream of its own so the others are untouched. This is the
	// model's ProbeAll: the live controller only ever tightens over
	// replicas it has already measured.
	g := core.NewStrategyKeyedGroup[struct{}, struct{}](cfg.Strategy)
	servers := make([]core.Handle[struct{}, struct{}], cfg.Servers)
	warm := rand.New(rand.NewSource(cfg.Seed ^ 0x2545f4914f6cdd1d))
	for s := range servers {
		name := fmt.Sprintf("server-%d", s)
		servers[s] = g.AddStarter(name, nil, &server{eng: eng, svc: cfg.Service, stream: stream})
		d := g.Digest(name)
		for range core.DefaultHedgeMinSamples {
			d.Observe(time.Duration(cfg.Service.Sample(warm) * float64(Unit)))
		}
	}

	lambda := cfg.Load * float64(cfg.Servers) / cfg.Service.Mean()
	sample := stats.NewSample(cfg.Requests)
	k := cfg.fanout()
	picked := make([]core.Handle[struct{}, struct{}], k)
	drawn := make([]int, k)
	extra, gated := 0, 0
	total := warmup + cfg.Requests
	issued := 0
	var err error

	// call makes the next request: for each copy the call may launch, a
	// server drawn uniformly among those its earlier copies left; then
	// the call, stepped on the simulation's clock. Its latency is read off
	// the model's clock when the call decides: the deciding completion's
	// instant, which Result.Latency measures too, rounded to the
	// nanosecond.
	var call func()
	call = func() {
		i, t := issued, eng.Now()
		issued++
		for j := range picked {
			s := stream(j).Intn(cfg.Servers - j)
			for _, u := range slices.Sorted(slices.Values(drawn[:j])) {
				if s >= u {
					s++
				}
			}
			drawn[j], picked[j] = s, servers[s]
		}
		var launched int
		launched, err = g.StepPicked(clock{eng}, struct{}{}, picked, func(res core.Result[struct{}], _ error) {
			if i >= warmup {
				sample.Add(eng.Now() - t)
				extra += res.Launched - 1
			}
		})
		if err != nil {
			return
		}
		if launched < k && i >= warmup {
			gated++
		}
		if issued < total {
			eng.After(arrivals.ExpFloat64()/lambda, call)
		}
	}
	eng.After(arrivals.ExpFloat64()/lambda, call)
	eng.Run()
	if err != nil {
		return HedgedResult{}, err
	}

	return HedgedResult{
		Sample:    sample,
		HedgeRate: float64(extra) / float64(cfg.Requests),
		GatedRate: float64(gated) / float64(cfg.Requests),
	}, nil
}

// server is one of the model's FCFS servers as the group's Starter: a
// copy started on it draws its service time from its slot's stream,
// queues behind the work already there (the Lindley recurrence: it
// starts at the later of now and the last departure) and completes, as
// an event of the simulation, when its service ends. Cancel refuses, so
// a copy runs to completion.
type server struct {
	eng     *sim.Engine
	svc     dist.Dist
	stream  func(slot int) *rand.Rand
	lastDep float64
}

func (s *server) Start(_ struct{}, sink core.Sink[struct{}], slot int) (core.Ticket, bool) {
	s.lastDep = max(s.eng.Now(), s.lastDep) + s.svc.Sample(s.stream(slot))
	s.eng.At(s.lastDep, func() { sink.Complete(slot, struct{}{}, nil) })
	return core.Ticket{}, true
}

func (*server) Cancel(core.Ticket) bool { return false }

// epoch is the instant of model time 0.
var epoch = time.Unix(0, 0)

// clock is the simulation's time as the engine reads it (core.Clock):
// model time t is the instant t Units after the epoch.
type clock struct{ eng *sim.Engine }

func (c clock) Now() time.Time {
	return epoch.Add(time.Duration(math.Round(c.eng.Now() * float64(Unit))))
}

func (c clock) AfterFunc(d time.Duration, f func()) core.Timer {
	t := &timer{clock: c, f: f}
	t.Reset(d)
	return t
}

// timer is a core.Timer on the simulation. Each arming schedules an
// event at the model time of its instant, so the clock reads exactly
// that instant when it fires; one a later arming or a Stop outdated
// does nothing.
type timer struct {
	clock
	f       func()
	arming  int
	pending bool
}

func (t *timer) Reset(d time.Duration) bool {
	was := t.Stop()
	t.arming++
	arming, at := t.arming, t.Now().Add(d)
	t.pending = true
	t.eng.At(float64(at.Sub(epoch))/float64(Unit), func() {
		if t.pending && t.arming == arming {
			t.pending = false
			t.f()
		}
	})
	return was
}

func (t *timer) Stop() bool {
	was := t.pending
	t.pending = false
	return was
}
