package main

import (
	"slices"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1) // the i-th smallest sample is i
	}
	for _, tc := range []struct {
		p      float64
		value  uint32
		beyond int
	}{
		{0.50, 500, 500},
		{0.99, 990, 10},
		{0.999, 999, 1},
		{1, 1000, 0},
	} {
		v, beyond := percentile(sorted, tc.p)
		if v != tc.value || beyond != tc.beyond {
			t.Errorf("percentile(1..1000, %v) = %d with %d beyond, want %d with %d", tc.p, v, beyond, tc.value, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 0.99); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %d, %d", v, beyond)
	}
}

// A tail is reported only with ten samples beyond it: p99 needs a
// thousand samples, p999 ten thousand.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{30000, 0.999, true},
	} {
		_, beyond := percentile(make([]uint32, tc.n), tc.p)
		if got := beyond >= minBeyond; got != tc.want {
			t.Errorf("%d samples, p=%v: %d beyond, supported=%v, want %v", tc.n, tc.p, beyond, got, tc.want)
		}
	}
}

// A failed operation sorts beyond every real latency, so enough failures
// drag a percentile to the sentinel.
func TestFailureIsBeyondEveryPercentile(t *testing.T) {
	lat := make([]uint32, 0, 100)
	for i := 0; i < 98; i++ {
		lat = append(lat, 1000)
	}
	lat = append(lat, failedLatency, failedLatency)
	slices.Sort(lat)
	if v, _ := percentile(lat, 0.5); v != 1000 {
		t.Errorf("p50 = %d, want 1000", v)
	}
	if v, _ := percentile(lat, 0.99); v != failedLatency {
		t.Errorf("p99 with 2%% failures = %d, want the failure sentinel", v)
	}
}

func TestPoissonScheduleReproducible(t *testing.T) {
	const n = 5000
	window := 5 * time.Second
	a := poissonSchedule(7, n, window)
	b := poissonSchedule(7, n, window)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if slices.Equal(a, poissonSchedule(8, n, window)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != n || !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= int64(window) {
		t.Fatalf("schedule of %d arrivals in [%d, %d] is not %d ascending offsets inside the window", len(a), a[0], a[n-1], n)
	}
	// Exponential gaps: about 1/e of them are longer than the mean.
	mean := float64(window) / n
	long := 0
	for i := 1; i < n; i++ {
		if float64(a[i]-a[i-1]) > mean {
			long++
		}
	}
	if share := float64(long) / n; share < 0.33 || share > 0.41 {
		t.Errorf("%.3f of the gaps exceed the mean; a Poisson process has 0.368", share)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median of 1..4 = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v", got)
	}
}
