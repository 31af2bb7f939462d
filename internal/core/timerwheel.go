package core

import (
	"sync"
	"time"
)

// This file implements a hierarchical timing wheel: a shared timer
// substrate that arms and cancels deadlines in O(1) with no per-timer
// heap allocation in steady state (expired and stopped nodes recycle
// through a free list). Its users are the deadlines that are in flight
// many at a time: the call engine's hedge delays and its context watch
// (a call asks for its caller's Done channel one tick in, so a call that
// ends sooner never makes it), the memkv mux client's request timeouts,
// the memkv server's delayed responses (parked on the shared wheel
// instead of holding a goroutine per request) and the store's TTL
// expiry. The trade is precision: a timer fires on the first tick
// boundary at or after its deadline, so expiry is late by up to one
// tick (DefaultWheelTick = 1ms). Hedge delays and service-time delays
// are statistical quantities, not hard real-time deadlines, and a
// caller's cancellation seen a tick late costs only the copies' work
// for that tick, so the coarsening is immaterial where the wheel is
// used.
//
// Layout: wheelLevels levels of wheelSlots slots each, covering
// [0, wheelSlots^wheelLevels) ticks. A timer whose delta fits level 0
// goes directly into its firing slot; coarser timers land in a higher
// level and cascade down one level each time the finer wheel wraps —
// the classic hashed hierarchical wheel of Varghese & Lauck.

const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	// wheelHorizon is the largest representable delta in ticks; longer
	// timers are clamped to it.
	wheelHorizon = 1<<(wheelBits*wheelLevels) - 1
	// wheelFreeCap bounds the recycled-node free list so a burst of
	// timers does not pin its high-water mark in memory forever.
	wheelFreeCap = 8192
)

// DefaultWheelTick is the tick of the shared wheel: the granularity
// (and worst-case lateness) of its timers.
const DefaultWheelTick = time.Millisecond

// wheelNode is one armed timer. Nodes are owned by the wheel and
// recycled; the generation counter invalidates stale WheelTimer handles
// so a Stop after reuse cannot unlink someone else's timer.
type wheelNode struct {
	next, prev *wheelNode
	when       int64 // absolute tick
	gen        uint32
	// level/slot record which list currently holds the node, written at
	// insert and cascade time. unlink must remove from this recorded
	// list: re-deriving the level from the current delta goes wrong once
	// time has advanced past a level boundary but the cascade has not
	// yet moved the node down.
	level uint8
	slot  uint8
	f     func(c any, i int64)
	c     any
	i     int64
}

// wheelList is a doubly-linked list head (nil-terminated both ways).
type wheelList struct {
	head, tail *wheelNode
}

func (l *wheelList) push(n *wheelNode) {
	n.prev = l.tail
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
}

func (l *wheelList) remove(n *wheelNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.next, n.prev = nil, nil
}

// take detaches and returns the whole list.
func (l *wheelList) take() *wheelNode {
	h := l.head
	l.head, l.tail = nil, nil
	return h
}

// TimerWheel is a hierarchical timing wheel; see the file comment. All
// methods are safe for concurrent use. Callbacks run on the wheel's own
// goroutine and must not block: hand off to a channel or goroutine if
// the work is more than a few non-blocking operations.
type TimerWheel struct {
	tick  time.Duration
	start time.Time

	mu     sync.Mutex
	now    int64 // ticks processed so far
	slots  [wheelLevels][wheelSlots]wheelList
	free   *wheelNode
	nfree  int
	armed  int
	closed bool

	wake chan struct{}
}

// NewTimerWheel creates a wheel with the given tick (0 means
// DefaultWheelTick) and starts its goroutine. The goroutine sleeps
// whenever no timer is armed. Call Close to stop it; the process-wide
// SharedWheel is never closed.
func NewTimerWheel(tick time.Duration) *TimerWheel {
	if tick <= 0 {
		tick = DefaultWheelTick
	}
	w := &TimerWheel{
		tick:  tick,
		start: time.Now(),
		wake:  make(chan struct{}, 1),
	}
	go w.loop()
	return w
}

var sharedWheel struct {
	once sync.Once
	w    *TimerWheel
}

// SharedWheel returns the process-wide wheel at DefaultWheelTick,
// starting it on first use. The call engine's hedge deadlines and
// context watches, the memkv server's delayed responses, and the mux
// clients' request timeouts all share it: one goroutine and one tick
// cadence however many deadlines are pending.
func SharedWheel() *TimerWheel {
	sharedWheel.once.Do(func() { sharedWheel.w = NewTimerWheel(0) })
	return sharedWheel.w
}

// WheelTimer is a handle to one armed timer, valid until the timer
// fires or is stopped. The zero WheelTimer is inert: Stop on it returns
// false. Handles are plain values; copying is fine.
type WheelTimer struct {
	w   *TimerWheel
	n   *wheelNode
	gen uint32
}

// AfterFunc arms a timer that calls f(c, i) on the wheel goroutine at
// the first tick boundary >= d from now. The (c, i) indirection exists
// so callers can use one static callback function with per-timer
// arguments instead of allocating a fresh closure per timer — the
// allocation-free idiom the batch engine's alloc budget depends on.
// f must not block (see TimerWheel).
func (w *TimerWheel) AfterFunc(d time.Duration, f func(c any, i int64), c any, i int64) WheelTimer {
	if d < 0 {
		d = 0
	}
	// Round up, then one more: "at or after the deadline" must survive
	// the in-progress tick.
	delta := int64((d + w.tick - 1) / w.tick)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return WheelTimer{}
	}
	if w.armed == 0 {
		// The loop parks while nothing is armed, freezing w.now as wall
		// time advances. Resync before arming, or the loop's catch-up to
		// the present would burn through this timer's delta and fire it
		// instantly. With zero timers armed, jumping w.now is safe: no
		// slot holds a node placed relative to the stale origin.
		w.now = int64(time.Since(w.start) / w.tick)
	}
	n := w.free
	if n != nil {
		w.free = n.next
		w.nfree--
		n.next = nil
	} else {
		n = &wheelNode{}
	}
	n.f, n.c, n.i = f, c, i
	n.when = w.now + delta + 1
	w.insert(n)
	w.armed++
	gen := n.gen
	w.mu.Unlock()
	// Wake the loop in case it is parked with nothing armed.
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return WheelTimer{w: w, n: n, gen: gen}
}

// insert places n into the level whose span covers its delta. Called
// with mu held.
func (w *TimerWheel) insert(n *wheelNode) {
	delta := n.when - w.now
	if delta < 1 {
		delta = 1
		n.when = w.now + 1
	}
	if delta > wheelHorizon {
		delta = wheelHorizon
		n.when = w.now + wheelHorizon
	}
	var level uint8
	var slot int64
	switch {
	case delta < wheelSlots:
		level, slot = 0, n.when&wheelMask
	case delta < wheelSlots*wheelSlots:
		level, slot = 1, (n.when>>wheelBits)&wheelMask
	default:
		level, slot = 2, (n.when>>(2*wheelBits))&wheelMask
	}
	n.level, n.slot = level, uint8(slot)
	w.slots[level][slot].push(n)
}

// Stop cancels the timer if it has not fired, reporting whether it was
// cancelled. A handle whose timer already fired (or a zero handle)
// returns false. Safe to call concurrently with the timer firing.
func (t WheelTimer) Stop() bool {
	if t.w == nil || t.n == nil {
		return false
	}
	w := t.w
	w.mu.Lock()
	if t.n.gen != t.gen {
		// Fired (or stopped) and possibly rearmed for someone else.
		w.mu.Unlock()
		return false
	}
	// Still ours and armed: unlink from whichever slot holds it.
	w.unlink(t.n)
	w.mu.Unlock()
	return true
}

// unlink removes an armed node from the list recorded at insert/cascade
// time and recycles it. Called with mu held.
func (w *TimerWheel) unlink(n *wheelNode) {
	w.slots[n.level][n.slot].remove(n)
	w.recycle(n)
	w.armed--
}

// recycle invalidates outstanding handles and returns n to the free
// list. Called with mu held.
func (w *TimerWheel) recycle(n *wheelNode) {
	n.gen++
	n.f, n.c = nil, nil
	if w.nfree < wheelFreeCap {
		n.next = w.free
		w.free = n
		w.nfree++
	}
}

// Armed returns the number of pending timers (for tests and stats).
func (w *TimerWheel) Armed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.armed
}

// Close stops the wheel goroutine. Pending timers never fire; pending
// handles' Stop becomes a no-op. Do not close the shared wheel.
func (w *TimerWheel) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// loop advances the wheel one tick at a time, parking when no timer is
// armed. Sleeps target absolute tick boundaries, so processing delays
// do not accumulate drift.
func (w *TimerWheel) loop() {
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return
		}
		if w.armed == 0 {
			w.mu.Unlock()
			<-w.wake
			continue
		}
		w.mu.Unlock()
		// Sleep to the next tick boundary after now.
		elapsed := time.Since(w.start)
		next := (elapsed/w.tick + 1) * w.tick
		time.Sleep(next - elapsed)
		w.advanceTo(int64(time.Since(w.start) / w.tick))
	}
}

// advanceTo processes every tick in (w.now, target], firing due timers.
func (w *TimerWheel) advanceTo(target int64) {
	for {
		w.mu.Lock()
		if w.now >= target {
			w.mu.Unlock()
			return
		}
		w.now++
		now := w.now
		// Cascade coarser levels down when the finer wheel wraps onto
		// their slot boundary.
		if now&wheelMask == 0 {
			w.cascade(1, (now>>wheelBits)&wheelMask)
			if (now>>wheelBits)&wheelMask == 0 {
				w.cascade(2, (now>>(2*wheelBits))&wheelMask)
			}
		}
		fired := w.slots[0][now&wheelMask].take()
		// Invalidate handles and count before releasing the lock, so a
		// concurrent Stop cannot race the callback run.
		for n := fired; n != nil; n = n.next {
			n.gen++
			w.armed--
		}
		w.mu.Unlock()
		for n := fired; n != nil; {
			next := n.next
			f, c, i := n.f, n.c, n.i
			f(c, i)
			w.mu.Lock()
			n.f, n.c = nil, nil
			if w.nfree < wheelFreeCap {
				n.next = w.free
				w.free = n
				w.nfree++
			}
			w.mu.Unlock()
			n = next
		}
	}
}

// cascade reinserts every node of the given higher-level slot into a
// finer level (or fires it on this tick if due). Called with mu held.
func (w *TimerWheel) cascade(level int, slot int64) {
	n := w.slots[level][slot].take()
	for n != nil {
		next := n.next
		n.next, n.prev = nil, nil
		if n.when <= w.now {
			// Due now: fire on this tick via level 0's current slot.
			n.level, n.slot = 0, uint8(w.now&wheelMask)
			w.slots[0][n.slot].push(n)
		} else {
			w.insert(n)
		}
		n = next
	}
}
