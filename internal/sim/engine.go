// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the abstract queueing model, the
// disk-backed cluster, and the fat-tree network) are built on this engine.
// Virtual time is a float64 number of seconds. Events scheduled for the
// same instant fire in scheduling order, which makes runs fully
// deterministic for a fixed seed.
package sim

import (
	"fmt"
	"math/rand"
)

// Event is a callback scheduled to run at a virtual time.
type Event func()

type scheduled struct {
	at  float64
	seq uint64
	fn  Event
}

// eventHeap is a binary min-heap on (at, seq), typed so that scheduling
// and running an event box nothing. seq is unique, so the order is total
// and every heap pops events in the same sequence.
type eventHeap []scheduled

func before(a, b *scheduled) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

func (h *eventHeap) push(it scheduled) {
	s := append(*h, scheduled{})
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&it, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = it
	*h = s
}

// pop removes and returns the earliest event; the heap must not be
// empty.
func (h *eventHeap) pop() scheduled {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = scheduled{} // drop the closure reference
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= n {
				break
			}
			if r := m + 1; r < n && before(&s[r], &s[m]) {
				m = r
			}
			if !before(&s[m], &last) {
				break
			}
			s[i] = s[m]
			i = m
		}
		s[i] = last
	}
	*h = s
	return top
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap
	rng    *rand.Rand
}

// NewEngine returns an engine whose random source is seeded with seed.
// Two engines with the same seed and the same schedule of events produce
// identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's random source. Model code should draw all
// randomness from here (or from streams split off it) for reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a model bug, and silently reordering time would
// corrupt every statistic downstream.
func (e *Engine) At(t float64, fn Event) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.events.push(scheduled{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds after the current virtual time.
func (e *Engine) After(d float64, fn Event) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Step runs the next pending event, advancing virtual time to it.
// It reports whether an event was run.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := e.events.pop()
	e.now = it.at
	it.fn()
	return true
}

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return len(e.events) }
