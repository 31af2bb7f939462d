// Package stats provides the measurement primitives shared by every
// experiment: streaming moments, exact-quantile sample stores, CCDF export
// (the paper plots "fraction later than threshold" on log axes), and
// paired-comparison helpers for the common-random-number threshold search.
package stats

import (
	"math"
	"sort"
)

// Running accumulates streaming mean and variance (Welford's algorithm)
// without storing samples. The zero value is ready to use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean (NaN if empty).
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased sample variance (NaN if fewer than 2
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// Min returns the smallest observation (NaN if empty).
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation (NaN if empty).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Sample stores observations for exact quantiles and CCDF export. For the
// sample sizes used here (<= a few million float64s) exact storage is
// cheaper and simpler than sketches, and keeps tail quantiles exact — the
// paper's headline results are 99th/99.9th percentiles, where sketch error
// would be most damaging.
type Sample struct {
	xs     []float64
	sorted bool
	run    Running
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.run.Add(x)
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean.
func (s *Sample) Mean() float64 { return s.run.Mean() }

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 { return s.run.Variance() }

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.run.Min() }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.run.Max() }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (q in [0,1]) using linear interpolation
// between order statistics. It returns NaN if the sample is empty.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	s.sort()
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 0.5-quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// P99 returns the 0.99-quantile.
func (s *Sample) P99() float64 { return s.Quantile(0.99) }

// P999 returns the 0.999-quantile.
func (s *Sample) P999() float64 { return s.Quantile(0.999) }

// FractionAbove returns the fraction of observations strictly greater than
// threshold — the paper's "fraction later than threshold" CCDF metric.
func (s *Sample) FractionAbove(threshold float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	// First index with xs[i] > threshold.
	i := sort.Search(len(s.xs), func(i int) bool { return s.xs[i] > threshold })
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// CCDF returns (threshold, fraction-later-than-threshold) pairs at the given
// thresholds.
func (s *Sample) CCDF(thresholds []float64) []CCDFPoint {
	pts := make([]CCDFPoint, len(thresholds))
	for i, t := range thresholds {
		pts[i] = CCDFPoint{T: t, Frac: s.FractionAbove(t)}
	}
	return pts
}

// CCDFPoint is one point of a complementary CDF.
type CCDFPoint struct {
	T    float64 // threshold
	Frac float64 // fraction of observations exceeding T
}

// Values returns the observations, sorted ascending. The returned slice is
// owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

// LogSpace returns n points spaced logarithmically between lo and hi
// inclusive, for CCDF threshold grids on log axes.
func LogSpace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= lo || n < 2 {
		panic("stats: LogSpace requires 0 < lo < hi and n >= 2")
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}
