package main

import "testing"

func TestValueRoundTripAndMismatch(t *testing.T) {
	for _, size := range []int{minValueSize, 64, 1024} {
		v := make([]byte, size)
		fillValue(v, 1234, 56)
		if !checkValue(v, 1234, 56, size) {
			t.Fatalf("size %d: the value written does not check", size)
		}
		if checkValue(v, 1235, 56, size) {
			t.Errorf("size %d: another key's value was accepted", size)
		}
		if checkValue(v, 1234, 55, size) {
			t.Errorf("size %d: a stale sequence number was accepted", size)
		}
		if checkValue(v[:size-1], 1234, 56, size) {
			t.Errorf("size %d: a truncated value was accepted", size)
		}
		v[size/2] ^= 1
		if checkValue(v, 1234, 56, size) {
			t.Errorf("size %d: a flipped bit was accepted", size)
		}
	}
}

// Whether a server stalls its n-th request depends on the seed and n
// alone, and about the configured share stall.
func TestStallHookDeterministic(t *testing.T) {
	pattern := func(seed uint64) []bool {
		h := &stallHook{seed: seed, percent: 5, stallFor: stallFor}
		if h.delay() != 0 {
			t.Fatal("a hook that is not armed stalled a request")
		}
		h.armed.Store(true)
		out := make([]bool, 20000)
		for i := range out {
			out[i] = h.delay() > 0
		}
		if got := h.requests.Load(); got != uint64(len(out))+1 {
			t.Fatalf("hook counted %d requests, want %d", got, len(out)+1)
		}
		return out
	}
	a, b, c := pattern(1), pattern(1), pattern(2)
	stalls, differ := 0, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d stalled on one run and not the other", i)
		}
		if a[i] {
			stalls++
		}
		differ = differ || a[i] != c[i]
	}
	if !differ {
		t.Error("two seeds gave the same stall pattern")
	}
	if share := float64(stalls) / float64(len(a)); share < 0.04 || share > 0.06 {
		t.Errorf("%.4f of requests stalled, want about 0.05", share)
	}
}
