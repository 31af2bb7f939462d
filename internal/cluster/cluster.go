// Package cluster simulates the paper's disk-backed storage service (§2.2):
// a set of servers each holding a share of a large file collection behind
// an OS page cache, and a set of clients issuing open-loop Poisson read
// requests, optionally replicated to the file's primary AND secondary
// server with the first complete response winning (Figures 5-11).
//
// The simulation models the mechanisms the paper identifies as governing
// the result:
//
//   - Disk seeks dominate small-file service times, so misses are expensive
//     and highly variable (seek times are lognormal), while the cache:disk
//     ratio sets the hit rate.
//   - Every response crosses the server NIC, the wire, and the client NIC,
//     and costs fixed client CPU to process; a replicated request delivers
//     up to two responses, so the client-side cost of redundancy scales
//     with file size — negligible at 4 KB, decisive at 400 KB or when
//     everything is cache-resident (§2.3).
//   - Placement uses consistent hashing with the secondary on the next
//     server, as in the paper.
//
// Hardware constants default to the paper's testbed scale (single-disk
// servers, gigabit NICs, 10k RPM disks).
package cluster

import (
	"fmt"
	"math/rand"
	"strconv"

	"redundancy/internal/dist"
	"redundancy/internal/ring"
	"redundancy/internal/sim"
	"redundancy/internal/stats"
)

// Config describes one cluster experiment run.
type Config struct {
	Servers int // number of storage servers (paper: 4)
	Clients int // number of client nodes (paper: 10)
	Files   int // number of distinct files in the collection

	// FileSize is the file-size law in bytes (paper base: deterministic
	// 4 KB; Figure 7 uses Pareto).
	FileSize dist.Dist

	// CacheRatio is page-cache bytes / data bytes per server (paper base
	// 0.1; Figure 8 uses 0.01; Figure 11 uses 2, i.e. fully resident).
	CacheRatio float64

	// Copies is 1 (no replication) or 2 (primary + secondary).
	Copies int

	// Load is offered load as a fraction of the per-server bottleneck
	// capacity of the UNREPLICATED system.
	Load float64

	Requests int // measured requests
	Warmup   int // discarded leading requests (default Requests/5)
	Seed     int64

	// EC2Noise enables the Figure 9 variant: multi-tenant interference is
	// modelled as a heavy-tailed multiplicative slowdown on every server
	// service stage.
	EC2Noise bool

	Hardware Hardware
}

// Hardware holds the physical constants of the simulated testbed. The zero
// value is replaced by Defaults().
type Hardware struct {
	DiskSeekMean float64 // mean positioning time per miss, seconds
	DiskSeekCV   float64 // coefficient of variation of positioning time
	DiskBW       float64 // disk sequential bandwidth, bytes/second
	ServerNICBW  float64 // server NIC bandwidth, bytes/second
	ClientNICBW  float64 // client NIC bandwidth, bytes/second
	HitCPU       float64 // server CPU time for a cache hit, seconds
	MissCPU      float64 // server CPU time to issue a disk read, seconds
	ClientCPU    float64 // client CPU time to process one response, seconds
	PropDelay    float64 // one-way propagation delay, seconds
}

// Defaults returns hardware constants matching the paper's Emulab nodes:
// 10k RPM disks (~8 ms positioning), gigabit NICs, single-core 3 GHz CPUs.
func Defaults() Hardware {
	return Hardware{
		DiskSeekMean: 8e-3,
		DiskSeekCV:   0.65,
		DiskBW:       60e6,
		ServerNICBW:  125e6, // 1 Gbps
		ClientNICBW:  125e6,
		HitCPU:       150e-6,
		MissCPU:      100e-6,
		ClientCPU:    30e-6,
		PropDelay:    100e-6,
	}
}

func (c *Config) setDefaults() {
	if c.Warmup == 0 {
		c.Warmup = c.Requests / 5
	}
	if c.Hardware == (Hardware{}) {
		c.Hardware = Defaults()
	}
}

func (c *Config) validate() error {
	if c.Servers < 2 {
		return fmt.Errorf("cluster: Servers must be >= 2, got %d", c.Servers)
	}
	if c.Clients < 1 {
		return fmt.Errorf("cluster: Clients must be >= 1, got %d", c.Clients)
	}
	if c.Files < 1 {
		return fmt.Errorf("cluster: Files must be >= 1, got %d", c.Files)
	}
	if c.FileSize == nil {
		return fmt.Errorf("cluster: FileSize is required")
	}
	if c.CacheRatio < 0 {
		return fmt.Errorf("cluster: CacheRatio must be >= 0, got %g", c.CacheRatio)
	}
	if c.Copies != 1 && c.Copies != 2 {
		return fmt.Errorf("cluster: Copies must be 1 or 2, got %d", c.Copies)
	}
	if c.Load <= 0 || c.Load >= 1 {
		return fmt.Errorf("cluster: Load must be in (0,1), got %g", c.Load)
	}
	if c.Requests < 1 {
		return fmt.Errorf("cluster: Requests must be >= 1, got %d", c.Requests)
	}
	return nil
}

// resource is a FCFS single-server resource on the simulation clock: work
// items serialize, each occupying the resource for its duration.
type resource struct {
	eng    *sim.Engine
	freeAt float64
}

// use schedules fn to run after the resource has served a new item of the
// given duration, FCFS behind earlier items.
func (r *resource) use(d float64, fn func()) {
	start := r.eng.Now()
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + d
	r.eng.At(r.freeAt, fn)
}

type server struct {
	cpu   resource
	disk  resource
	nic   resource
	cache *lru
	// noise draws a multiplicative slowdown for EC2 mode; nil when off.
	noise func() float64
}

type client struct {
	cpu resource
	nic resource
}

type file struct {
	size      float64 // bytes
	primary   int
	secondary int
}

// Result holds the measured output of a run.
type Result struct {
	// Latency is the response-time sample in seconds (first complete
	// response per request).
	Latency *stats.Sample
	// HitRate is the measured cache hit rate across all servers.
	HitRate float64
	// MeanServiceEstimate is the analytic per-request bottleneck service
	// time used to calibrate the arrival rate for the configured load.
	MeanServiceEstimate float64
}

// Run executes the cluster simulation.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	hw := cfg.Hardware
	eng := sim.NewEngine(cfg.Seed)
	rng := eng.Rand()

	// ---- Build the file collection and its placement: primary and the
	// next server on the ring.
	names := make([]string, cfg.Servers)
	nameToIdx := make(map[string]int, cfg.Servers)
	for s := range names {
		names[s] = "server-" + strconv.Itoa(s)
		nameToIdx[names[s]] = s
	}
	placement := ring.NewPlacement(names, 64, 2)
	var owners [2]string
	files := make([]file, cfg.Files)
	var totalBytes float64
	perServerBytes := make([]float64, cfg.Servers)
	for i := range files {
		sz := cfg.FileSize.Sample(rng)
		if sz < 1 {
			sz = 1
		}
		placement.OwnersInto("file-"+strconv.Itoa(i), owners[:])
		p, q := nameToIdx[owners[0]], nameToIdx[owners[1]]
		files[i] = file{size: sz, primary: p, secondary: q}
		totalBytes += sz
		perServerBytes[p] += sz
		perServerBytes[q] += sz
	}

	// ---- Build servers and clients.
	servers := make([]*server, cfg.Servers)
	for s := range servers {
		cacheBytes := cfg.CacheRatio * perServerBytes[s]
		servers[s] = &server{
			cpu:   resource{eng: eng},
			disk:  resource{eng: eng},
			nic:   resource{eng: eng},
			cache: newLRU(cacheBytes),
		}
		if cfg.EC2Noise {
			// Heavy-tailed multi-tenant slowdown: usually ~1x, sometimes
			// several x. Lognormal with cv 1.5 has mean 1 and a long tail.
			noise := dist.LogNormalMeanCV(1, 1.5)
			servers[s].noise = func() float64 { return noise.Sample(rng) }
		}
	}
	clients := make([]*client, cfg.Clients)
	for c := range clients {
		clients[c] = &client{cpu: resource{eng: eng}, nic: resource{eng: eng}}
	}

	// ---- Warm caches: touch a random resident set so steady-state hit
	// rates apply from the first measured request.
	for s := range servers {
		for i := range files {
			f := files[i]
			if f.primary == s || f.secondary == s {
				servers[s].cache.touch(i, f.size)
			}
		}
	}

	// ---- Load calibration. Disk is the bottleneck except when the cache
	// holds everything, in which case the server CPU is.
	hitProb := cfg.CacheRatio
	if hitProb > 1 {
		hitProb = 1
	}
	meanSize := cfg.FileSize.Mean()
	diskDemand := (1 - hitProb) * (hw.DiskSeekMean + meanSize/hw.DiskBW)
	cpuDemand := hitProb*hw.HitCPU + (1-hitProb)*hw.MissCPU
	nicDemand := meanSize / hw.ServerNICBW
	bottleneck := diskDemand
	if cpuDemand > bottleneck {
		bottleneck = cpuDemand
	}
	if nicDemand > bottleneck {
		bottleneck = nicDemand
	}
	lambdaTotal := cfg.Load * float64(cfg.Servers) / bottleneck

	// ---- Measurement plumbing.
	lat := stats.NewSample(cfg.Requests)
	var hits, accesses int64
	total := cfg.Warmup + cfg.Requests

	type reqState struct {
		done bool
	}

	// serveCopy runs one copy of a request at server s and calls deliver
	// with the response when it has fully arrived at the client.
	var serveCopy func(s *server, cl *client, fsize float64, fid int, deliver func())
	serveCopy = func(s *server, cl *client, fsize float64, fid int, deliver func()) {
		slow := 1.0
		if s.noise != nil {
			slow = s.noise()
		}
		// Request packet crosses the wire.
		eng.After(hw.PropDelay, func() {
			hit := s.cache.contains(fid)
			accesses++
			if hit {
				hits++
				s.cache.touch(fid, fsize)
				s.cpu.use(hw.HitCPU*slow, func() {
					s.nic.use(fsize/hw.ServerNICBW, func() {
						eng.After(hw.PropDelay, func() {
							cl.nic.use(fsize/hw.ClientNICBW, func() {
								cl.cpu.use(hw.ClientCPU, deliver)
							})
						})
					})
				})
				return
			}
			s.cpu.use(hw.MissCPU*slow, func() {
				seek := lognormalSeek(rng, hw.DiskSeekMean, hw.DiskSeekCV)
				s.disk.use((seek+fsize/hw.DiskBW)*slow, func() {
					s.cache.touch(fid, fsize)
					s.nic.use(fsize/hw.ServerNICBW, func() {
						eng.After(hw.PropDelay, func() {
							cl.nic.use(fsize/hw.ClientNICBW, func() {
								cl.cpu.use(hw.ClientCPU, deliver)
							})
						})
					})
				})
			})
		})
	}

	// ---- Open-loop Poisson arrivals.
	now := 0.0
	for i := 0; i < total; i++ {
		now += rng.ExpFloat64() / lambdaTotal
		reqIdx := i
		fid := rng.Intn(cfg.Files)
		cl := clients[rng.Intn(cfg.Clients)]
		eng.At(now, func() {
			f := files[fid]
			st := &reqState{}
			start := eng.Now()
			deliver := func() {
				if st.done {
					return
				}
				st.done = true
				if reqIdx >= cfg.Warmup {
					lat.Add(eng.Now() - start)
				}
			}
			serveCopy(servers[f.primary], cl, f.size, fid, deliver)
			if cfg.Copies == 2 {
				serveCopy(servers[f.secondary], cl, f.size, fid, deliver)
			}
		})
	}
	eng.Run()

	hr := 0.0
	if accesses > 0 {
		hr = float64(hits) / float64(accesses)
	}
	return &Result{Latency: lat, HitRate: hr, MeanServiceEstimate: bottleneck}, nil
}

// lognormalSeek draws a positioning time with the given mean and CV.
func lognormalSeek(r *rand.Rand, mean, cv float64) float64 {
	if cv <= 0 {
		return mean
	}
	return dist.LogNormalMeanCV(mean, cv).Sample(r)
}
