package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var at float64
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Fatalf("After(5) from t=10 ran at %v, want 15", at)
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.After(1, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if count != 100 {
		t.Fatalf("chained events ran %d times, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("final time %v, want 99", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	ran := make(map[float64]bool)
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		tm := tm
		e.At(tm, func() { ran[tm] = true })
	}
	e.RunUntil(3)
	if !ran[1] || !ran[2] || !ran[3] || ran[4] || ran[5] {
		t.Fatalf("RunUntil(3) ran wrong events: %v", ran)
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if !ran[4] || !ran[5] {
		t.Fatalf("remaining events did not run")
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := NewEngine(seed)
		var times []float64
		var next func()
		next = func() {
			times = append(times, e.Now())
			if len(times) < 50 {
				e.After(e.Rand().ExpFloat64(), next)
			}
		}
		e.At(0, next)
		e.Run()
		return times
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

// Property: after an arbitrary batch of At() calls with non-negative times,
// Run visits them in nondecreasing time order.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(1)
		var visited []float64
		for _, v := range raw {
			tm := float64(v)
			e.At(tm, func() { visited = append(visited, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(visited); i++ {
			if visited[i] < visited[i-1] {
				return false
			}
		}
		return len(visited) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineRunsInTimeThenSchedulingOrder: events scheduled up front
// and from inside other events, with many ties, run in exactly the order
// of (time, scheduling sequence).
func TestEngineRunsInTimeThenSchedulingOrder(t *testing.T) {
	type key struct {
		at  float64
		seq int
	}
	e := NewEngine(1)
	var want, got []key
	seq := 0
	var schedule func(at float64)
	schedule = func(at float64) {
		seq++
		k := key{at, seq}
		want = append(want, k)
		e.At(at, func() {
			got = append(got, k)
			if len(want) < 2000 && e.Rand().Intn(2) == 0 {
				schedule(e.Now() + float64(e.Rand().Intn(4)))
			}
		})
	}
	for i := 0; i < 500; i++ {
		schedule(float64(e.Rand().Intn(20)))
	}
	e.Run()
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if len(got) != len(want) {
		t.Fatalf("ran %d events, scheduled %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestEngineEventAllocatesNothing: scheduling and running an event that
// already exists costs no allocation once the queue has grown.
func TestEngineEventAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 8; i++ {
		e.At(float64(i), fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, fn)
		e.Step()
	}); n != 0 {
		t.Errorf("At plus Step allocates %.0f per event, want 0", n)
	}
}
