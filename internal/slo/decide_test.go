package slo

import (
	"fmt"
	"testing"
	"time"
)

func testLadder(t *testing.T) []rung {
	t.Helper()
	return buildLadder(3)
}

// testMinSamples is the window size decide's fixtures must reach.
const testMinSamples = 48

// TestLadderMonotone pins the ladder's two invariants: expected extra
// load strictly increases rung to rung (so "one rung up" is always the
// cheapest tighten), and every hedging quantile stays within [p50, p99].
func TestLadderMonotone(t *testing.T) {
	for _, maxFanout := range []int{1, 2, 3, 4, 5} {
		lad := buildLadder(maxFanout)
		if lad[0] != (rung{fanout: 1, q: 1}) {
			t.Fatalf("maxFanout=%d: rung 0 = %+v, want fanout 1", maxFanout, lad[0])
		}
		prev := -1.0
		for i, r := range lad {
			e := expectedExtra(r)
			if e <= prev {
				t.Errorf("maxFanout=%d: expectedExtra not increasing at rung %d: %g after %g", maxFanout, i, e, prev)
			}
			prev = e
			if r.fanout > maxFanout {
				t.Errorf("maxFanout=%d: rung %d fanout %d exceeds cap", maxFanout, i, r.fanout)
			}
			if r.fanout > 1 && (r.q < 0.50 || r.q > 0.99) {
				t.Errorf("maxFanout=%d: rung %d quantile %g outside [p50, p99]", maxFanout, i, r.q)
			}
		}
	}
	if e := expectedExtra(rung{fanout: 2, q: 0.9}); e < 0.099 || e > 0.101 {
		t.Errorf("expectedExtra(2, p90) = %g, want 0.1", e)
	}
	if e := expectedExtra(rung{fanout: 3, q: 0.5}); e < 0.749 || e > 0.751 {
		t.Errorf("expectedExtra(3, p50) = %g, want 0.75", e)
	}
}

// TestDecideTable drives every decision branch from fixtures: for each
// (window, point, target) the knob must move in the proven-correct
// direction.
func TestDecideTable(t *testing.T) {
	lad := testLadder(t)
	tgt := Target{P99: 100 * time.Millisecond, MaxExtraLoad: 0.3}
	ok := Window{Samples: 1000, Mean: 20 * time.Millisecond}

	win := func(p99 time.Duration, extra float64) Window {
		w := ok
		w.P99, w.ExtraLoad = p99, extra
		return w
	}
	// Rung index whose successor would blow the 0.3 budget: the last
	// affordable rung on the fanout-2 sweep (1 - q <= 0.3 ⇒ q >= 0.7).
	lastAffordable := 0
	for i, r := range lad {
		if affordable(r, tgt) {
			lastAffordable = i
		}
	}
	if r := lad[lastAffordable]; r.fanout != 2 || r.q != 0.70 {
		t.Fatalf("last affordable rung = %+v, want fanout 2 q 0.70", r)
	}

	cases := []struct {
		name     string
		w        Window
		r        int
		wantR    int
		wantMove Move
		wantWhy  Reason
	}{
		{"cold-holds", Window{Samples: 3, P99: time.Second}, 2, 2, MoveHold, ReasonCold},
		{"no-p99-holds", Window{Samples: 1000}, 2, 2, MoveHold, ReasonCold},
		{"gated-clamps", func() Window { w := win(10*time.Millisecond, 0.2); w.Gated = true; return w }(), 4, 0, MoveClamp, ReasonGated},
		{"gated-at-floor-holds", func() Window { w := win(time.Second, 0); w.Gated = true; return w }(), 0, 0, MoveHold, ReasonGated},
		{"miss-climbs-rung", win(200*time.Millisecond, 0.05), 2, 3, MoveTighten, ReasonMiss},
		{"miss-respects-budget", win(200*time.Millisecond, 0.05), lastAffordable, lastAffordable, MoveHold, ReasonExhausted},
		{"over-budget-relaxes-now", win(90*time.Millisecond, 0.5), 5, 4, MoveRelax, ReasonOverBudget},
		{"over-budget-beats-miss", win(500*time.Millisecond, 0.5), 5, 4, MoveRelax, ReasonOverBudget},
		{"headroom-descends-rung", win(20*time.Millisecond, 0.05), 2, 1, MoveRelax, ReasonHeadroom},
		{"headroom-at-floor-holds", win(20*time.Millisecond, 0), 0, 0, MoveHold, ReasonHeadroom},
		{"deadband-holds", win(85*time.Millisecond, 0.1), 2, 2, MoveHold, ReasonDeadband},
		{"band-top-edge-holds", win(100*time.Millisecond, 0.1), 2, 2, MoveHold, ReasonDeadband},
		{"band-bottom-edge-holds", win(70*time.Millisecond, 0.1), 2, 2, MoveHold, ReasonDeadband},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, mv, why := decide(tc.w, tc.r, tgt, lad, testMinSamples)
			if got != tc.wantR || mv != tc.wantMove || why != tc.wantWhy {
				t.Fatalf("decide(%+v, rung %d) = (rung %d, %v, %v), want (rung %d, %v, %v)",
					tc.w, tc.r, got, mv, why, tc.wantR, tc.wantMove, tc.wantWhy)
			}
		})
	}
}

// TestDecideUncappedBudget: MaxExtraLoad <= 0 means no budget — the
// controller may climb the whole ladder and never relaxes for spend.
func TestDecideUncappedBudget(t *testing.T) {
	lad := testLadder(t)
	tgt := Target{P99: 100 * time.Millisecond}
	w := Window{Samples: 1000, P99: time.Second, ExtraLoad: 1.8}
	r := len(lad) - 2
	got, mv, _ := decide(w, r, tgt, lad, testMinSamples)
	if mv != MoveTighten || got != r+1 {
		t.Fatalf("uncapped tighten = (rung %d, %v), want climb to %d", got, mv, r+1)
	}
}

// TestDecideNoOscillation sweeps the hysteresis band at every operating
// rung: any p99 inside [relaxFraction·target, target] must hold, so a
// tighten that lands the p99 anywhere in the band cannot be immediately
// undone (and vice versa).
func TestDecideNoOscillation(t *testing.T) {
	lad := testLadder(t)
	tgt := Target{P99: 100 * time.Millisecond, MaxExtraLoad: 0.3}
	for r := range lad {
		if !affordable(lad[r], tgt) {
			// Unaffordable rungs are not steady states: the budget rule
			// descends from them by design, deadband or not.
			continue
		}
		for frac := 0.70; frac <= 1.0; frac += 0.01 {
			p99 := time.Duration(frac * float64(tgt.P99))
			w := Window{Samples: 1000, P99: p99, ExtraLoad: 0.1}
			got, mv, why := decide(w, r, tgt, lad, testMinSamples)
			if mv != MoveHold || got != r {
				t.Fatalf("p99=%v at rung %d: move %v (%v) to rung %d; deadband must hold", p99, r, mv, why, got)
			}
		}
	}

	// Closed-loop check: alternate windows hugging both band edges and
	// assert the operating point never moves after settling.
	r := 3
	for i := 0; i < 100; i++ {
		p99 := 71 * time.Millisecond
		if i%2 == 0 {
			p99 = 99 * time.Millisecond
		}
		next, mv, _ := decide(Window{Samples: 1000, P99: p99, ExtraLoad: 0.1}, r, tgt, lad, testMinSamples)
		if mv != MoveHold {
			t.Fatalf("iteration %d: oscillated with %v to rung %d", i, mv, next)
		}
		r = next
	}
}

// TestDecideConvergesFromAnywhere: from every starting point, a steady
// miss signal walks monotonically up the affordable ladder and a steady
// headroom signal (patience aside — decide is patience-free) walks back
// down to the floor; both directions terminate.
func TestDecideConvergesFromAnywhere(t *testing.T) {
	lad := testLadder(t)
	tgt := Target{P99: 100 * time.Millisecond, MaxExtraLoad: 0.3}
	miss := Window{Samples: 1000, P99: 500 * time.Millisecond, ExtraLoad: 0.05}
	headroom := Window{Samples: 1000, P99: 5 * time.Millisecond, ExtraLoad: 0.05}
	for start := range lad {
		r := start
		for i := 0; ; i++ {
			next, mv, _ := decide(miss, r, tgt, lad, testMinSamples)
			if mv == MoveHold {
				break
			}
			if cost, prev := expectedExtra(lad[next]), expectedExtra(lad[r]); mv == MoveTighten && cost <= prev {
				t.Fatalf("tighten from rung %d did not increase spend (%g -> %g)", r, prev, cost)
			}
			r = next
			if i > 3*len(lad) {
				t.Fatalf("tighten loop did not terminate from rung %d", start)
			}
		}
		if !affordable(lad[r], tgt) {
			t.Fatalf("steady miss settled on unaffordable rung %+v", lad[r])
		}
		for i := 0; ; i++ {
			next, mv, _ := decide(headroom, r, tgt, lad, testMinSamples)
			if mv == MoveHold {
				break
			}
			r = next
			if i > 3*len(lad) {
				t.Fatalf("relax loop did not terminate")
			}
		}
		if r != 0 {
			t.Fatalf("steady headroom settled at rung %d, want rung 0", r)
		}
	}
}

func TestMoveReasonStrings(t *testing.T) {
	for m := MoveHold; m <= MoveClamp; m++ {
		if m.String() == "unknown" {
			t.Errorf("Move(%d) has no name", m)
		}
	}
	if Move(99).String() != "unknown" {
		t.Errorf("out-of-range Move should stringify as unknown")
	}
	for r := ReasonDeadband; r <= ReasonPatience; r++ {
		if r.String() == "unknown" {
			t.Errorf("Reason(%d) has no name", r)
		}
	}
	_ = fmt.Sprintf("%v %v", MoveTighten, ReasonMiss)
}
