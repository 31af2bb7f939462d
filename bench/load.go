package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
)

// workload is one named traffic mix and the stack configuration it runs
// against.
type workload struct {
	name         string
	viaGateway   bool          // HTTP through the gateway, or ShardedClient directly
	openRate     int           // requests per second offered on an open loop; 0 = closed loop
	valueSize    int           // bytes per value
	putPercent   int           // share of operations that are PUTs
	strategy     core.Strategy // read strategy; nil = the client's default
	stallPercent int           // share of requests each server stalls, once armed
	stallFor     time.Duration
}

const (
	hedgeDelay = 2 * time.Millisecond
	stallFor   = 20 * time.Millisecond
)

var workloads = []workload{
	{name: "lib_get_k1", valueSize: 64, strategy: core.Fixed{Copies: 1}},
	{name: "lib_get_k2", valueSize: 64, strategy: core.Fixed{Copies: 2}},
	{name: "gw_get_stall_hedged", viaGateway: true, openRate: 1000, valueSize: 64,
		strategy:     core.Fixed{Copies: 2, HedgeDelay: hedgeDelay},
		stallPercent: 5, stallFor: stallFor},
	{name: "gw_put_get_mix", viaGateway: true, valueSize: 1024, putPercent: 50},
}

// hedgeDelay is the delay before the second copy under the workload's
// strategy, 0 if it launches every copy at once.
func (wl *workload) hedgeDelay() time.Duration {
	f, _ := wl.strategy.(core.Fixed)
	return f.HedgeDelay
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// keyState is what the benchmark knows each key must hold: the sequence
// number of the last write that was acknowledged, and the version that
// write was given. On a workload with writes every key belongs to one
// caller, so a key's entry is only ever touched by one goroutine.
type keyState struct {
	seq []uint64
	ver []uint64
}

// client issues single operations against the stack for one caller and
// checks what comes back. do reports whether the operation succeeded
// with the right answer.
type client interface {
	do(key int, put bool) bool
	close()
}

// libClient calls ShardedClient.Get directly.
type libClient struct {
	sc    *memkv.ShardedClient
	keys  []string
	state *keyState
	size  int
	rec   *recorder // nil unless traced
}

func (c *libClient) do(key int, _ bool) bool {
	ctx := context.Background()
	if c.rec != nil && c.rec.on.Load() {
		id, start := c.rec.begin()
		v, err := c.sc.Get(withTrace(ctx, traceRef{req: id, parent: id}), c.keys[key])
		c.rec.end(span{ID: id, Req: id, Start: start, Kind: spanShardedGet, Outcome: outcomeOf(err), Shard: -1})
		return err == nil && checkValue(v, key, c.state.seq[key], c.size)
	}
	v, err := c.sc.Get(ctx, c.keys[key])
	return err == nil && checkValue(v, key, c.state.seq[key], c.size)
}

func (c *libClient) close() {}

// gwClient speaks HTTP to the gateway over one keep-alive connection.
type gwClient struct {
	conn     *rawConn
	getHeads [][]byte
	putHeads [][]byte
	state    *keyState
	size     int
	rec      *recorder // nil unless traced
	reqBuf   []byte
	valBuf   []byte
}

func (c *gwClient) do(key int, put bool) bool {
	var req uint64
	var start int64
	traced := c.rec != nil && c.rec.on.Load()
	if traced {
		var id uint32
		id, start = c.rec.begin()
		req = uint64(id)
	}
	ok := c.roundTrip(key, put, req)
	if traced {
		out := outcomeOK
		if !ok {
			out = outcomeError
		}
		c.rec.end(span{ID: uint32(req), Req: uint32(req), Start: start, Kind: spanOp, Outcome: out, Shard: -1})
	}
	return ok
}

func (c *gwClient) roundTrip(key int, put bool, req uint64) bool {
	if !put {
		c.reqBuf = appendRequest(c.reqBuf[:0], c.getHeads[key], req, nil)
		status, body, err := c.conn.roundTrip(c.reqBuf)
		return err == nil && status == 200 && checkValue(body, key, c.state.seq[key], c.size)
	}
	seq := c.state.seq[key] + 1
	fillValue(c.valBuf, key, seq)
	c.reqBuf = appendRequest(c.reqBuf[:0], c.putHeads[key], req, c.valBuf)
	status, body, err := c.conn.roundTrip(c.reqBuf)
	if err != nil || status != 200 {
		return false
	}
	// One ShardedClient mints every version, so a key's versions only
	// ever grow.
	ver := parsePutVersion(body)
	if ver <= c.state.ver[key] {
		return false
	}
	c.state.seq[key], c.state.ver[key] = seq, ver
	return true
}

func (c *gwClient) close() { _ = c.conn.Close() }

// newClients makes one client per caller for the workload.
func newClients(wl *workload, s *stack, callers int, state *keyState, rec *recorder) ([]client, error) {
	clients := make([]client, 0, callers)
	if !wl.viaGateway {
		keys := make([]string, numKeys)
		for k := range keys {
			keys[k] = keyName(k)
		}
		for range callers {
			clients = append(clients, &libClient{sc: s.sc, keys: keys, state: state, size: wl.valueSize, rec: rec})
		}
		return clients, nil
	}
	getHeads, putHeads := make([][]byte, numKeys), make([][]byte, numKeys)
	for k := range getHeads {
		getHeads[k] = renderGetHead(keyName(k))
		putHeads[k] = renderPutHead(keyName(k), wl.valueSize)
	}
	for range callers {
		conn, err := dialRaw(s.gwAddr)
		if err != nil {
			for _, c := range clients {
				c.close()
			}
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		clients = append(clients, &gwClient{
			conn: conn, getHeads: getHeads, putHeads: putHeads, state: state, size: wl.valueSize, rec: rec,
			valBuf: make([]byte, wl.valueSize),
		})
	}
	return clients, nil
}

// window is what one measured stretch of load produced. It is cut into
// slices of about a second, because this machine is shared: every minute
// or so the whole process freezes for tens of milliseconds, and for
// seconds at a time it runs a fifth slower. A mean over the window
// carries every such episode; the median of the slices' own figures does
// not, unless episodes fill half the window.
type window struct {
	slices    []slice
	elapsed   time.Duration
	attempted int
	failed    int
	before    usage
	after     usage

	// Open loop only.
	schedLagNS []uint32 // actual send minus due time, ascending
	backlogMax int      // most due requests waiting for a connection at once
	drain      time.Duration
}

// slice is one stretch of a window: on a closed loop the operations
// that started in one second, on an open loop the next second's worth of
// arrivals (as many as the rate, so every slice has the same count).
type slice struct {
	latNS []uint32 // each operation's latency, ascending; a failure is failedLatency
	ok    int
	span  time.Duration
	cpuUS int64 // process CPU time used during the slice
}

func (w *window) ok() int { return w.attempted - w.failed }

func newSlice(lat []uint32, span time.Duration, cpuUS int64) slice {
	lat = slices.Clone(lat)
	slices.Sort(lat)
	firstFailed, _ := slices.BinarySearch(lat, failedLatency)
	return slice{latNS: lat, ok: firstFailed, span: span, cpuUS: cpuUS}
}

// bufferedSamples is how many latency samples per second of window the
// closed loop makes room for before it starts, split between callers, so
// that recording them allocates nothing while the window runs.
const bufferedSamples = 400_000

// runClosed drives a closed loop for d, a whole number of seconds: every
// caller sends its next operation when its last one has completed.
// Caller c draws keys from its own partition (key mod callers == c), so
// on a workload with writes it is the only reader and writer of its
// keys.
func runClosed(wl *workload, clients []client, seed uint64, d time.Duration) window {
	callers := len(clients)
	seconds := int(d / time.Second)
	samples := make([][]uint32, callers)
	marks := make([][]int, callers) // marks[c][s]: caller c's sample count when second s+1 began
	for c := range samples {
		samples[c] = make([]uint32, 0, bufferedSamples*seconds/callers)
		marks[c] = make([]int, 0, seconds)
	}
	cpuMarks := make([]int64, 0, seconds+1)
	perCaller := numKeys / callers
	var wg sync.WaitGroup
	runtime.GC()
	w := window{before: readUsage()}
	cpuMarks = append(cpuMarks, w.before.cpuUS)
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
			lat := samples[c]
			for {
				t0 := time.Now()
				for len(marks[c]) < seconds && t0.Sub(start) >= time.Duration(len(marks[c])+1)*time.Second {
					marks[c] = append(marks[c], len(lat))
					if c == 0 {
						cpuMarks = append(cpuMarks, cpuNow())
					}
				}
				if len(marks[c]) == seconds {
					break
				}
				key := c + callers*rng.IntN(perCaller)
				put := wl.putPercent > 0 && rng.IntN(100) < wl.putPercent
				if clients[c].do(key, put) {
					lat = append(lat, uint32(min(time.Since(t0), failedLatency-1)))
				} else {
					lat = append(lat, failedLatency)
				}
			}
			samples[c] = lat
		}()
	}
	wg.Wait()
	w.after = readUsage()
	w.elapsed = w.after.at.Sub(start)
	var merged []uint32
	for s := 0; s < seconds; s++ {
		merged = merged[:0]
		for c := range samples {
			from := 0
			if s > 0 {
				from = marks[c][s-1]
			}
			merged = append(merged, samples[c][from:marks[c][s]]...)
		}
		sl := newSlice(merged, time.Second, cpuMarks[s+1]-cpuMarks[s])
		w.attempted += len(sl.latNS)
		w.failed += len(sl.latNS) - sl.ok
		w.slices = append(w.slices, sl)
	}
	return w
}

// prSetTimerslack is prctl's PR_SET_TIMERSLACK: how late the kernel may
// wake the calling thread from a timed sleep.
const prSetTimerslack = 29

// runOpen drives an open loop for d, a whole number of seconds: requests
// fall due at the instants of a seeded Poisson process at the workload's
// rate whether or not earlier ones have completed, each is sent on the
// first free connection, and its latency runs from the instant it was
// due — so a request that waited behind a stalled one is charged for the
// wait.
func runOpen(wl *workload, clients []client, seed uint64, d time.Duration) window {
	rate := wl.openRate
	seconds := int(d / time.Second)
	n := rate * seconds
	due := poissonSchedule(seed, n, d)
	keys := make([]int, n)
	rng := rand.New(rand.NewPCG(seed, 0x6b657973))
	for i := range keys {
		keys[i] = rng.IntN(numKeys)
	}
	// Indexed by arrival; each entry is written by the one worker that
	// serves that arrival.
	lat := make([]uint32, n)
	lag := make([]uint32, n)
	cpuMarks := make([]int64, 0, seconds+1)
	// Sized to the number of sends, so the dispatcher never blocks: a
	// request that finds every connection busy waits here, and the queue
	// length is the backlog.
	queue := make(chan int, n)
	var backlogMax int
	var lastDone atomic.Int64

	var wg sync.WaitGroup
	runtime.GC()
	w := window{before: readUsage()}
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				sent := time.Since(start)
				ok := clients[c].do(keys[i], false)
				done := time.Since(start)
				lag[i] = uint32(min(max(sent-time.Duration(due[i]), 0), failedLatency-1))
				lat[i] = failedLatency
				if ok {
					lat[i] = uint32(min(done-time.Duration(due[i]), failedLatency-1))
				}
				lastDone.Store(int64(done))
			}
		}()
	}
	// The dispatcher sleeps on its own thread with the kernel's timer
	// slack turned off: Go's timers wake up to a millisecond late when
	// the process is otherwise idle, which at a millisecond between
	// arrivals would be the largest term in every latency.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(queue)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		// Without the call the sleeps are a little later, and the lag is
		// reported either way.
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
		for i, at := range due {
			for wait := time.Duration(at) - time.Since(start); wait > 0; wait = time.Duration(at) - time.Since(start) {
				ts := syscall.NsecToTimespec(int64(wait))
				_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
			}
			if i%rate == 0 {
				cpuMarks = append(cpuMarks, cpuNow())
			}
			backlogMax = max(backlogMax, len(queue))
			queue <- i
		}
	}()
	wg.Wait()
	w.after = readUsage()
	cpuMarks = append(cpuMarks, w.after.cpuUS)
	w.elapsed = time.Duration(lastDone.Load()) // the last reply, a little before or after the window's end
	w.drain = w.elapsed - d
	w.backlogMax = backlogMax
	for s := 0; s < seconds; s++ {
		end := int64(d)
		if s+1 < seconds {
			end = due[(s+1)*rate]
		}
		sl := newSlice(lat[s*rate:(s+1)*rate], time.Duration(end-due[s*rate]), cpuMarks[s+1]-cpuMarks[s])
		w.attempted += len(sl.latNS)
		w.failed += len(sl.latNS) - sl.ok
		w.slices = append(w.slices, sl)
	}
	slices.Sort(lag)
	w.schedLagNS = lag
	return w
}

// run drives the workload's loop for d.
func run(wl *workload, clients []client, seed uint64, d time.Duration) window {
	if wl.openRate > 0 {
		return runOpen(wl, clients, seed, d)
	}
	return runClosed(wl, clients, seed, d)
}

// sliceMedian is the median over the window's slices of f(slice).
func (w *window) sliceMedian(f func(*slice) float64) float64 {
	xs := make([]float64, len(w.slices))
	for i := range w.slices {
		xs[i] = f(&w.slices[i])
	}
	return median(xs)
}

// opsPerSecond is the median slice's rate of correct completed
// operations.
func (w *window) opsPerSecond() float64 {
	return w.sliceMedian(func(s *slice) float64 { return float64(s.ok) / s.span.Seconds() })
}

// latency returns the p-quantile of latency in microseconds as the
// median over groups of adjacent slices of each group's own quantile,
// and the fewest samples any group has beyond its quantile. Slices are
// grouped no more than needed for every group to have minBeyond samples
// beyond the quantile; if even the whole window has not, it is one
// group.
func (w *window) latency(p float64) (us float64, beyond int) {
	for per := 1; ; per++ {
		qs, fewest := w.groupQuantiles(per, p)
		if fewest >= minBeyond || per >= len(w.slices) {
			return median(qs) / 1e3, fewest
		}
	}
}

// groupQuantiles cuts the slices into groups of per (a short last group
// is dropped) and returns each group's p-quantile in nanoseconds and the
// fewest samples any group has beyond it.
func (w *window) groupQuantiles(per int, p float64) (qs []float64, fewestBeyond int) {
	fewestBeyond = -1
	var merged []uint32
	for from := 0; from+per <= len(w.slices); from += per {
		group := w.slices[from].latNS // already ascending
		if per > 1 {
			merged = merged[:0]
			for i := from; i < from+per; i++ {
				merged = append(merged, w.slices[i].latNS...)
			}
			slices.Sort(merged)
			group = merged
		}
		q, beyond := percentile(group, p)
		qs = append(qs, float64(q))
		if fewestBeyond < 0 || beyond < fewestBeyond {
			fewestBeyond = beyond
		}
	}
	return qs, max(fewestBeyond, 0)
}
