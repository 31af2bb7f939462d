package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunningMomentsMatchDirect(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var run Running
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 7
		run.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs)-1)
	if math.Abs(run.Mean()-mean) > 1e-9 {
		t.Errorf("Mean = %g, want %g", run.Mean(), mean)
	}
	if math.Abs(run.Variance()-wantVar) > 1e-6 {
		t.Errorf("Variance = %g, want %g", run.Variance(), wantVar)
	}
	if run.N() != int64(len(xs)) {
		t.Errorf("N = %d, want %d", run.N(), len(xs))
	}
}

func TestRunningEmptyAndSingle(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Error("empty Running should return NaN moments")
	}
	r.Add(5)
	if r.Mean() != 5 || r.Min() != 5 || r.Max() != 5 {
		t.Error("single-sample moments wrong")
	}
	if !math.IsNaN(r.Variance()) {
		t.Error("variance of single sample should be NaN")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if s.Median() != s.Quantile(0.5) {
		t.Error("Median != Quantile(0.5)")
	}
}

func TestSampleQuantileClampsAndEmpty(t *testing.T) {
	s := NewSample(0)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sample quantile should be NaN")
	}
	s.Add(3)
	if s.Quantile(-1) != 3 || s.Quantile(2) != 3 {
		t.Error("out-of-range q should clamp")
	}
}

// A Sample's moments are its Running's, its tail accessors are
// quantiles, Values is sorted, and an empty sample's tail is NaN.
func TestSampleAccessors(t *testing.T) {
	s := NewSample(0)
	if !math.IsNaN(s.FractionAbove(0)) {
		t.Error("empty sample FractionAbove should be NaN")
	}
	for i := 1000; i >= 1; i-- {
		s.Add(float64(i))
	}
	if s.Mean() != 500.5 || math.Abs(s.Variance()-83416.66666666667) > 1e-6 {
		t.Errorf("Mean, Variance = %g, %g; want 500.5, 83416.67", s.Mean(), s.Variance())
	}
	if s.P99() != s.Quantile(0.99) || s.P999() != s.Quantile(0.999) {
		t.Errorf("P99, P999 = %g, %g; want Quantile(0.99), Quantile(0.999)", s.P99(), s.P999())
	}
	if vs := s.Values(); len(vs) != 1000 || !sort.Float64sAreSorted(vs) {
		t.Errorf("Values: %d observations, sorted %v; want 1000, sorted", len(vs), sort.Float64sAreSorted(vs))
	}
}

func TestLogSpaceRejectsBadRange(t *testing.T) {
	for _, c := range []struct {
		lo, hi float64
		n      int
	}{{0, 1, 3}, {2, 1, 3}, {1, 2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LogSpace(%g, %g, %d) did not panic", c.lo, c.hi, c.n)
				}
			}()
			LogSpace(c.lo, c.hi, c.n)
		}()
	}
}

func TestFractionAbove(t *testing.T) {
	s := NewSample(0)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	cases := []struct{ th, want float64 }{
		{0, 1}, {1, 0.8}, {3, 0.4}, {5, 0}, {10, 0},
	}
	for _, c := range cases {
		if got := s.FractionAbove(c.th); got != c.want {
			t.Errorf("FractionAbove(%g) = %g, want %g", c.th, got, c.want)
		}
	}
}

func TestCCDFMonotoneNonincreasing(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := NewSample(0)
	for i := 0; i < 1000; i++ {
		s.Add(r.ExpFloat64())
	}
	pts := s.CCDF(LogSpace(0.001, 10, 50))
	for i := 1; i < len(pts); i++ {
		if pts[i].Frac > pts[i-1].Frac {
			t.Fatalf("CCDF increased at %d", i)
		}
	}
}

func TestInterleavedAddAndQuery(t *testing.T) {
	// Querying (which sorts) then adding more must keep results correct.
	s := NewSample(0)
	s.Add(3)
	s.Add(1)
	if s.Median() != 2 {
		t.Fatalf("median = %g", s.Median())
	}
	s.Add(2)
	if s.Median() != 2 {
		t.Fatalf("median after add = %g", s.Median())
	}
	if s.Max() != 3 || s.Min() != 1 {
		t.Fatal("min/max wrong after interleaved use")
	}
}

func TestLogSpaceAndLinSpace(t *testing.T) {
	ls := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(ls[i]-want[i]) > 1e-9 {
			t.Errorf("LogSpace[%d] = %g, want %g", i, ls[i], want[i])
		}
	}
}

// Property: Sample.Quantile agrees with direct sorting for random data.
func TestQuantileMatchesSortProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := NewSample(0)
		for _, v := range xs {
			s.Add(v)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		if s.Quantile(0) != sorted[0] || s.Quantile(1) != sorted[len(sorted)-1] {
			return false
		}
		med := s.Quantile(0.5)
		return med >= sorted[0] && med <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: FractionAbove is within [0,1] and antitone in the threshold.
func TestFractionAboveAntitoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s := NewSample(0)
		for _, v := range raw {
			if !math.IsNaN(v) {
				s.Add(v)
			}
		}
		if s.N() == 0 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		fl, fh := s.FractionAbove(lo), s.FractionAbove(hi)
		return fl >= fh && fl >= 0 && fl <= 1 && fh >= 0 && fh <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
