package fattree

import (
	"fmt"

	"redundancy/internal/dist"
	"redundancy/internal/sim"
	"redundancy/internal/stats"
)

// Config describes one fat-tree experiment run.
type Config struct {
	// LinkBandwidth in bits/second (paper: 5e9 and 10e9).
	LinkBandwidth float64
	// LinkDelay is the per-hop propagation delay in seconds (paper: 2e-6
	// and 6e-6).
	LinkDelay float64
	// BufferBytes is the per-output-queue buffer (paper: 225 KB).
	BufferBytes int
	// MinRTO is TCP's minimum retransmission timeout (paper: 10 ms).
	MinRTO float64
	// Load is the offered load as a fraction of aggregate host link
	// capacity.
	Load float64
	// Replicate enables duplication of each flow's first
	// ReplicatePackets segments on an alternate ECMP path at low priority.
	Replicate bool
	// ReplicatePackets is how many leading segments to duplicate
	// (paper: 8). Set to a large value to replicate every packet — the
	// paper notes this "can never be worse than without replication" but
	// wastes the gain on replica self-queueing; the ablation benchmark
	// quantifies that.
	ReplicatePackets int
	// ReplicaSamePriority sends replicas at the SAME priority as
	// originals instead of strictly lower — the design the paper rejects
	// because replicas would then delay foreground traffic. Ablation only.
	ReplicaSamePriority bool
	// FlowSize is the flow-size law in bytes; DefaultFlowSizes() matches
	// the paper's data-center mix.
	FlowSize dist.Dist
	// Flows is the number of measured flows; Warmup flows are launched
	// first to fill the fabric with background (elephant) traffic.
	Flows  int
	Warmup int
	// Drain bounds how long (seconds of virtual time) the simulation runs
	// past the last flow start to let measured flows finish. Default 2 s.
	// A measured flow under 10 KB still open when it ends fails the Run.
	Drain float64
	Seed  int64
}

// DefaultFlowSizes returns the paper's data-center workload shape
// (Benson et al.): flow sizes from 1 KB to 3 MB with more than 80% of
// flows below 10 KB, and most bytes in the few large flows.
func DefaultFlowSizes() dist.Dist {
	return dist.NewEmpirical(
		[]float64{1e3, 2e3, 4e3, 7e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6},
		[]float64{0.10, 0.35, 0.60, 0.75, 0.82, 0.88, 0.93, 0.96, 0.985, 1.0},
		true,
	)
}

// Defaults fills zero fields with the paper's base configuration.
func (c *Config) setDefaults() {
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 5e9
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 2e-6
	}
	if c.BufferBytes == 0 {
		c.BufferBytes = 225 * 1000
	}
	if c.MinRTO == 0 {
		c.MinRTO = 10e-3
	}
	if c.ReplicatePackets == 0 {
		c.ReplicatePackets = 8
	}
	if c.FlowSize == nil {
		c.FlowSize = DefaultFlowSizes()
	}
	if c.Warmup == 0 {
		c.Warmup = c.Flows / 2
	}
	if c.Drain == 0 {
		c.Drain = 2.0
	}
}

func (c *Config) validate() error {
	if c.Load <= 0 || c.Load >= 1 {
		return fmt.Errorf("fattree: Load must be in (0,1), got %g", c.Load)
	}
	if c.Flows < 1 {
		return fmt.Errorf("fattree: Flows must be >= 1, got %d", c.Flows)
	}
	if c.LinkBandwidth <= 0 || c.LinkDelay < 0 || c.BufferBytes <= 0 || c.MinRTO <= 0 {
		return fmt.Errorf("fattree: invalid physical constants")
	}
	return nil
}

// Result carries the measured flow-completion-time samples.
type Result struct {
	// Small is the FCT sample (seconds) for measured flows < 10 KB — the
	// population Figure 14 reports on. Every such flow completed.
	Small *stats.Sample
	// All is the FCT sample for every measured completed flow.
	All *stats.Sample
	// ElephantMean is the mean FCT of measured flows >= 1 MB (0 if none
	// completed).
	ElephantMean float64
	// Timeouts is the total number of TCP retransmission timeouts.
	Timeouts int64
	// DroppedReplicas / DroppedOriginals count queue drops by priority
	// class across the fabric.
	DroppedReplicas, DroppedOriginals int64
}

// Sim is the running simulation state shared by flows.
type Sim struct {
	cfg *Config
	eng *sim.Engine
	net *network

	sent          int64
	totalTimeouts int64

	measured       []*flow
	elephantSum    float64
	elephantCount  int
	smallSample    *stats.Sample
	allSample      *stats.Sample
	completedSmall int
	measuredSmall  int
}

// dataPath returns the (possibly alternate) path for a flow's data
// packets.
func (s *Sim) dataPath(f *flow, replica bool) []*link {
	p, err := s.net.path(f.src, f.dst, f.id, replica)
	if err != nil {
		panic(err) // src != dst is guaranteed at flow creation
	}
	return p
}

// ackPath returns the reverse path for ACKs (its own ECMP choice, as the
// reverse five-tuple hashes independently).
func (s *Sim) ackPath(f *flow) []*link {
	p, err := s.net.path(f.dst, f.src, f.id^0x9e3779b97f4a7c15, false)
	if err != nil {
		panic(err)
	}
	return p
}

// forward advances a packet along its path; at the last hop it is
// delivered to the receiving host's TCP.
func (s *Sim) forward(pkt *packet) {
	if pkt.hop < len(pkt.path) {
		l := pkt.path[pkt.hop]
		pkt.hop++
		l.send(pkt)
		return
	}
	if pkt.seq >= 0 {
		pkt.f.onData(pkt.seq)
	} else {
		pkt.f.onAck(pkt.ack)
	}
}

// completed records a finished measured flow.
func (s *Sim) completed(f *flow) {
	if f.start < 0 {
		return // warmup flow
	}
	fct := f.finish - f.start
	s.allSample.Add(fct)
	if f.bytes < 10_000 {
		s.smallSample.Add(fct)
		s.completedSmall++
	}
	if f.bytes >= 1_000_000 {
		s.elephantSum += fct
		s.elephantCount++
	}
}

// Run executes the experiment.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(cfg.Seed)
	rng := eng.Rand()
	net := newNetwork(&cfg, eng)
	s := &Sim{
		cfg:         &cfg,
		eng:         eng,
		net:         net,
		smallSample: stats.NewSample(cfg.Flows),
		allSample:   stats.NewSample(cfg.Flows),
	}

	meanSize := cfg.FlowSize.Mean()
	// Load is the average utilization of the NumHosts host uplinks.
	bytesPerSec := cfg.LinkBandwidth / 8
	lambda := cfg.Load * float64(NumHosts) * bytesPerSec / meanSize

	now := 0.0
	var lastStart float64
	total := cfg.Warmup + cfg.Flows
	var fid uint64
	for i := 0; i < total; i++ {
		now += rng.ExpFloat64() / lambda
		lastStart = now
		src := rng.Intn(NumHosts)
		dst := rng.Intn(NumHosts - 1)
		if dst >= src {
			dst++
		}
		size := int(cfg.FlowSize.Sample(rng))
		if size < 1 {
			size = 1
		}
		fid++
		f := &flow{
			id:         fid,
			src:        src,
			dst:        dst,
			bytes:      size,
			segs:       (size + segPayload - 1) / segPayload,
			replicate:  cfg.Replicate,
			sim:        s,
			rtoBackoff: 1,
		}
		measured := i >= cfg.Warmup
		if measured && size < 10_000 {
			s.measuredSmall++
		}
		at := now
		eng.At(at, func() {
			if measured {
				f.start = s.eng.Now()
			} else {
				f.start = -1
			}
			f.launch()
		})
	}
	eng.RunUntil(lastStart + cfg.Drain)
	if s.completedSmall < s.measuredSmall {
		// Small is censored: the drain window was too short or the
		// fabric saturated.
		return nil, fmt.Errorf("fattree: %d of %d measured small flows did not complete within the %g s drain",
			s.measuredSmall-s.completedSmall, s.measuredSmall, cfg.Drain)
	}

	var dropRep, dropOrig int64
	net.allLinks(func(l *link) {
		dropOrig += l.droppedPackets[0]
		dropRep += l.droppedPackets[1]
	})
	res := &Result{
		Small:            s.smallSample,
		All:              s.allSample,
		Timeouts:         s.totalTimeouts,
		DroppedReplicas:  dropRep,
		DroppedOriginals: dropOrig,
	}
	if s.elephantCount > 0 {
		res.ElephantMean = s.elephantSum / float64(s.elephantCount)
	}
	return res, nil
}
