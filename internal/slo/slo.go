package slo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
)

// DefaultClass is the traffic class the Controller itself speaks for
// when used directly as a core.Strategy. It observes the Counters'
// overall aggregates (every operation, labeled or not); named classes
// observe only their own label.
const DefaultClass = "default"

// ClassConfig is a class's live operating point — what the data path
// reads on every call: the hedging schedule's fan-out and quantile.
type ClassConfig struct {
	// Quantile is the hedge quantile in [0.50, 0.99]; 1 when Fanout is
	// 1 and no hedge can fire.
	Quantile float64
	// Fanout is the maximum copies per operation.
	Fanout int
}

// Strategy is the core.Strategy the operating point runs: up to Fanout
// copies on the best-ranked replicas, copy i+1 hedged at the Quantile of
// copy i's replica digest, and launched at once while that digest is
// cold. It is the one mapping from a ladder rung to engine behaviour:
// ClassStrategy runs it on the data path, and the pre-flight simulates
// it before a tighten goes live.
func (c ClassConfig) Strategy() core.AdaptiveHedge {
	return core.AdaptiveHedge{Copies: c.Fanout, Quantile: c.Quantile, Selection: core.SelectRanked}
}

// Config wires a Controller to its observation sources and tunes the
// control loop. Counters is required; everything else has serviceable
// defaults.
type Config struct {
	// Counters is the observation source: the same Observer installed
	// on the rings the controller steers. Class names are WithLabel
	// values; DefaultClass reads the overall aggregates.
	Counters *core.Counters
	// Governor, when set, governs every call that runs the controller
	// or one of its class views: the group samples its load and gates
	// fan-out through it (core.GovernorOf), and while it is gated the
	// controller clamps every class to no redundancy instead of fighting
	// the gate. This is the one place a governor is given to the SLO
	// stack.
	Governor *core.Governor
	// Interval is the control period for Start (default 1s).
	Interval time.Duration
	// MaxFanout caps the ladder (default 3).
	MaxFanout int
	// MinWindowSamples is the window size below which the controller
	// holds rather than act on noise (default 48).
	MinWindowSamples int64
	// DisableValidation skips the queueing-model pre-flight on tighten
	// moves.
	DisableValidation bool
}

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return time.Second
	}
	return c.Interval
}

// class is one traffic class's control state. The atomic fields are the
// data-path interface (read on every call); the rest is loop state
// guarded by the controller's mutex.
type class struct {
	name   string
	target atomic.Pointer[Target]
	op     atomic.Pointer[ClassConfig]

	// view is the class's data-path strategy, built once.
	view *ClassStrategy

	// Control-loop state, guarded by Controller.mu.
	rung         int
	relaxStreak  int
	havePrev     bool
	prev         core.DigestSnapshot
	prevOps      int64
	prevLaunched int64

	// Introspection counters.
	moves      [4]atomic.Int64 // indexed by Move
	rejects    atomic.Int64
	lastP99    atomic.Int64  // ns
	lastExtra  atomic.Uint64 // float64 bits
	lastReason atomic.Int64
}

func (cl *class) publish(lad []rung) {
	r := lad[cl.rung]
	cl.op.Store(&ClassConfig{Quantile: r.q, Fanout: r.fanout})
}

// Controller adapts per-class operating points toward their Targets.
// It implements core.Strategy, speaking for DefaultClass; per-class
// views from Class plug into calls via core.WithStrategyOverride +
// core.WithLabel. All methods are safe for concurrent use.
type Controller struct {
	cfg        Config
	lad        []rung
	minSamples int64
	defView    *ClassStrategy

	// mu guards every class's control-loop state. The registry needs no
	// lock: a request's Class lookup never waits on a control round and
	// its pre-flight.
	mu      sync.Mutex
	classes sync.Map // name → *class

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// New builds a Controller whose DefaultClass pursues target. Additional
// classes are registered on first use (Class, SetTarget) and inherit
// target until SetTarget overrides them.
func New(target Target, cfg Config) *Controller {
	if cfg.Counters == nil {
		panic("slo: Config.Counters is required")
	}
	maxFanout := cfg.MaxFanout
	if maxFanout < 1 {
		maxFanout = 3
	}
	c := &Controller{
		cfg:        cfg,
		lad:        buildLadder(maxFanout),
		minSamples: cfg.MinWindowSamples,
	}
	if c.minSamples <= 0 {
		c.minSamples = 48
	}
	def := c.ensureClass(DefaultClass)
	def.target.Store(&target)
	c.defView = def.view
	return c
}

// ensureClass returns the named class, creating it at the cheapest
// operating point (no redundancy) with the default class's target if it
// is new.
func (c *Controller) ensureClass(name string) *class {
	if cl := c.lookup(name); cl != nil {
		return cl
	}
	cl := &class{name: name}
	cl.view = &ClassStrategy{cl: cl, gov: c.cfg.Governor}
	tgt := Target{}
	if def := c.lookup(DefaultClass); def != nil {
		tgt = *def.target.Load()
	}
	cl.target.Store(&tgt)
	cl.publish(c.lad)
	v, _ := c.classes.LoadOrStore(name, cl)
	return v.(*class)
}

// lookup returns the named class, nil if it is not registered.
func (c *Controller) lookup(name string) *class {
	if v, ok := c.classes.Load(name); ok {
		return v.(*class)
	}
	return nil
}

// all returns every registered class, sorted by name.
func (c *Controller) all() []*class {
	var out []*class
	c.classes.Range(func(_, v any) bool {
		out = append(out, v.(*class))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// SetTarget declares (or replaces) a class's target, registering the
// class if needed. Safe to call while traffic is in flight; the control
// loop picks up the new target on its next round.
func (c *Controller) SetTarget(name string, tgt Target) {
	c.ensureClass(name).target.Store(&tgt)
}

// Target returns a class's current target and whether the class exists.
func (c *Controller) Target(name string) (Target, bool) {
	cl := c.lookup(name)
	if cl == nil {
		return Target{}, false
	}
	return *cl.target.Load(), true
}

// ClassConfig returns a class's live operating point and whether the
// class exists.
func (c *Controller) ClassConfig(name string) (ClassConfig, bool) {
	cl := c.lookup(name)
	if cl == nil {
		return ClassConfig{}, false
	}
	return *cl.op.Load(), true
}

// Class returns the per-class strategy view: a core.Strategy that reads
// the class's live operating point on every call, governed by
// Config.Governor. Pair it with core.WithStrategyOverride and
// core.WithLabel(name) so the class's calls both follow and feed its
// control loop. The class is registered on first use, and every call
// for it returns the same view.
func (c *Controller) Class(name string) *ClassStrategy {
	if name == "" || name == DefaultClass {
		return c.defView
	}
	return c.ensureClass(name).view
}

// Governor returns Config.Governor, nil when none was given. It makes
// the controller, run as a group's strategy, a governed one
// (core.GovernorOf); front doors read its stats through it.
func (c *Controller) Governor() *core.Governor { return c.cfg.Governor }

// Classes lists the registered class names, sorted.
func (c *Controller) Classes() []string {
	var out []string
	for _, cl := range c.all() {
		out = append(out, cl.name)
	}
	return out
}

// Step runs one control round for one class from caller-supplied
// measurements: the full decision pipeline — governor clamp, hysteresis
// deadband, relax patience, budget guard, queueing-model validation —
// and publishes the resulting operating point. Tick feeds it live
// windows; simulations and tests drive it directly.
func (c *Controller) Step(name string, w Window) (ClassConfig, Move) {
	cl := c.ensureClass(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stepLocked(cl, w)
}

func (c *Controller) stepLocked(cl *class, w Window) (ClassConfig, Move) {
	tgt := *cl.target.Load()
	next, mv, why := decide(w, cl.rung, tgt, c.lad, c.minSamples)

	// Relax patience: headroom must persist. Budget overshoot and the
	// governor clamp act immediately — one is a declared cap, the other
	// an overload signal — but giving back redundancy on the first
	// comfortable window would oscillate against the tighten rule.
	if mv == MoveRelax && why == ReasonHeadroom {
		cl.relaxStreak++
		if cl.relaxStreak < relaxPatience {
			next, mv, why = cl.rung, MoveHold, ReasonPatience
		} else {
			cl.relaxStreak = 0
		}
	} else {
		cl.relaxStreak = 0
	}

	// Pre-flight rung climbs in the queueing model: at high load an
	// extra copy queues behind everyone else's and makes the tail
	// worse (the paper's threshold), so a tighten must first prove
	// itself against a no-redundancy baseline at the estimated load.
	if mv == MoveTighten {
		if !c.validateTighten(w, c.lad[next]) {
			cl.rejects.Add(1)
			next, mv, why = cl.rung, MoveHold, ReasonRejected
		}
	}

	cl.rung = next
	cl.publish(c.lad)
	cl.moves[mv].Add(1)
	cl.lastP99.Store(int64(w.P99))
	cl.lastExtra.Store(floatBits(w.ExtraLoad))
	cl.lastReason.Store(int64(why))
	return *cl.op.Load(), mv
}

// Tick runs one control round for every registered class from live
// Counters and Governor measurements. The first round for a class only
// establishes its window baseline.
func (c *Controller) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cl := range c.all() {
		if w, ok := c.measureLocked(cl); ok {
			c.stepLocked(cl, w)
		}
	}
}

// measureLocked builds a class's window from the Counters and Governor,
// advancing the class's snapshot baseline. ok is false when there is
// nothing actionable (first observation, or no traffic at all).
func (c *Controller) measureLocked(cl *class) (Window, bool) {
	var (
		dg            *core.LatDigest
		ops, launched int64
	)
	if cl.name == DefaultClass {
		dg = c.cfg.Counters.LatencyDigest()
		ops = c.cfg.Counters.Ops()
		launched = c.cfg.Counters.LaunchedCopies()
	} else {
		dg = c.cfg.Counters.LabelLatencyDigest(cl.name)
		if st, ok := c.cfg.Counters.LabelSnapshot(cl.name); ok {
			ops, launched = st.Ops, st.Launched
		}
	}
	if dg == nil {
		return Window{}, false
	}
	var cur core.DigestSnapshot
	dg.Snapshot(&cur)
	if !cl.havePrev {
		cl.prev, cl.prevOps, cl.prevLaunched, cl.havePrev = cur, ops, launched, true
		return Window{}, false
	}
	prev := cl.prev
	w := Window{Utilization: -1}
	w.Samples = cur.WindowCount(&prev)
	w.P99, _ = cur.WindowQuantile(&prev, 0.99)
	w.Mean, _ = cur.WindowMean(&prev)
	w.QuantileFn = func(p float64) (time.Duration, bool) { return cur.WindowQuantile(&prev, p) }
	if dOps := ops - cl.prevOps; dOps > 0 {
		w.ExtraLoad = float64((launched-cl.prevLaunched)-dOps) / float64(dOps)
	}
	if g := c.cfg.Governor; g != nil {
		gs := g.Stats()
		if gs.Observed {
			w.Utilization = gs.Utilization
		}
		w.Gated = gs.Gated
	}
	cl.prev, cl.prevOps, cl.prevLaunched = cur, ops, launched
	return w, true
}

// Start launches the background control loop at the configured
// Interval. Stop ends it; Start after Stop restarts it.
func (c *Controller) Start() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stop != nil {
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(c.cfg.interval())
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Stop halts the background control loop and waits for it to exit. The
// operating points remain live (the data path keeps reading them); only
// adaptation stops.
func (c *Controller) Stop() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}

// ClassStats is one class's introspection snapshot.
type ClassStats struct {
	// Class is the class name (the WithLabel value).
	Class string
	// Target is the declared objective.
	Target Target
	// Config is the live operating point.
	Config ClassConfig
	// ExpectedExtraLoad is the current rung's a-priori spend.
	ExpectedExtraLoad float64
	// WindowP99 and WindowExtraLoad are the last control round's
	// measurements.
	WindowP99       time.Duration
	WindowExtraLoad float64
	// LastReason explains the last round's decision.
	LastReason string
	// Holds, Tightens, Relaxes, Clamps count decisions; Rejects counts
	// tighten moves vetoed by the queueing-model pre-flight.
	Holds, Tightens, Relaxes, Clamps, Rejects int64
}

// Stats snapshots every class, sorted by name.
func (c *Controller) Stats() []ClassStats {
	classes := c.all()
	out := make([]ClassStats, 0, len(classes))
	for _, cl := range classes {
		op := *cl.op.Load()
		c.mu.Lock()
		exp := expectedExtra(c.lad[cl.rung])
		c.mu.Unlock()
		out = append(out, ClassStats{
			Class:             cl.name,
			Target:            *cl.target.Load(),
			Config:            op,
			ExpectedExtraLoad: exp,
			WindowP99:         time.Duration(cl.lastP99.Load()),
			WindowExtraLoad:   bitsFloat(cl.lastExtra.Load()),
			LastReason:        Reason(cl.lastReason.Load()).String(),
			Holds:             cl.moves[MoveHold].Load(),
			Tightens:          cl.moves[MoveTighten].Load(),
			Relaxes:           cl.moves[MoveRelax].Load(),
			Clamps:            cl.moves[MoveClamp].Load(),
			Rejects:           cl.rejects.Load(),
		})
	}
	return out
}

// Fanout implements core.Strategy, speaking for DefaultClass.
func (c *Controller) Fanout() (int, core.Selection) { return c.defView.Fanout() }

// ScheduleInto implements core.Strategy, speaking for DefaultClass.
func (c *Controller) ScheduleInto(d core.Digests, dst []time.Duration) []time.Duration {
	return c.defView.ScheduleInto(d, dst)
}

// String implements core.Strategy.
func (c *Controller) String() string { return c.defView.String() }

// ClassStrategy is a class's data-path view of the controller: a
// core.Strategy that reads the class's live operating point on every
// call, so a control-loop move takes effect on the very next operation
// without any re-wiring, and that carries the controller's governor.
type ClassStrategy struct {
	cl  *class
	gov *core.Governor
}

// Governor returns the controller's Config.Governor, nil when none was
// given: a group running the view samples and gates through it.
func (s *ClassStrategy) Governor() *core.Governor { return s.gov }

// Fanout implements core.Strategy.
func (s *ClassStrategy) Fanout() (int, core.Selection) {
	return s.cl.op.Load().Strategy().Fanout()
}

// ScheduleInto implements core.Strategy: the operating point's
// ClassConfig.Strategy schedule.
func (s *ClassStrategy) ScheduleInto(d core.Digests, dst []time.Duration) []time.Duration {
	return s.cl.op.Load().Strategy().ScheduleInto(d, dst)
}

// String implements core.Strategy.
func (s *ClassStrategy) String() string {
	op := *s.cl.op.Load()
	if op.Fanout <= 1 {
		return fmt.Sprintf("slo(%s, k=1)", s.cl.name)
	}
	return fmt.Sprintf("slo(%s, k=%d@p%g)", s.cl.name, op.Fanout, op.Quantile*100)
}
