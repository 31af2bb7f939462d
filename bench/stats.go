package main

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// failedLatency stands in for the latency of an operation that failed:
// it sorts beyond every real sample, so a failure counts as missing
// every percentile.
const failedLatency = math.MaxUint32

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported as a tail: fewer and the figure is a handful of outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the p-quantile (0 < p <=
// 1) among n >= 1 ascending samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// percentile returns the nearest-rank p-quantile of an ascending sample
// and how many samples lie beyond it.
func percentile(sorted []uint32, p float64) (value uint32, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := rank(n, p)
	return sorted[r-1], n - r
}

// median of a float sample; 0 when empty. The slice is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// poissonSchedule returns n arrival offsets of a Poisson process,
// ascending within [0, window): exponential gaps from the seeded
// generator, scaled so that exactly n arrivals fall in the window (a
// Poisson process conditioned on its count). A fixed count keeps the
// offered rate identical from seed to seed; the gaps keep their bursts.
func poissonSchedule(seed uint64, n int, window time.Duration) []int64 {
	rng := rand.New(rand.NewPCG(seed, 0x706f6973736f6e))
	at := make([]float64, n+1)
	sum := 0.0
	for i := range at {
		sum += rng.ExpFloat64()
		at[i] = sum
	}
	// The (n+1)-th arrival marks the end of the window, so the n-th
	// lands strictly inside it.
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(at[i] / sum * float64(window))
	}
	return out
}

// usage is the process's resource counters at one instant.
type usage struct {
	at      time.Time
	cpuUS   int64 // user + system CPU time
	mallocs uint64
	bytes   uint64
}

// cpuNow is the process's user + system CPU time so far, in microseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru.Utime.Nano()/1e3 + ru.Stime.Nano()/1e3
}

func readUsage() usage {
	at := time.Now()
	cpu := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      at,
		cpuUS:   cpu,
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}
