package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// This file is the one timer the live stack arms: the call engine's
// hedge delays and its context watch, the memkv mux client's request
// timeouts, the memkv server's parked delays and the store's TTL expiry.
// It is a pooled runtime timer. Each pooled node owns one time.AfterFunc
// timer, made with the node, and arming the node again is a Reset, so
// arming, stopping and firing allocate nothing in steady state. The
// deadline is the runtime's monotonic instant, d after the arm: a timer
// never fires before its delay, and after it only by the scheduler's
// latency.
//
// Stop and the fire race for an arming through the node's state word;
// whichever claims it first decides whether f runs. The node goes back to
// the pool only once no party of that arming can touch it again: a fire
// the runtime already started when a Stop won is still on its way, and
// had the node been armed again first, that fire would claim the new
// arming and run its callback at once. So Stop recycles the node itself
// only when the runtime's Stop withdrew the fire; otherwise, of the Stop
// and the fire, the second to finish recycles it.

// The phases of an arming, the low two bits of a node's state; the bits
// above count the node's armings, so a handle from an earlier arming
// matches nothing.
const (
	timerIdle     = iota // not armed: pooled, or on the way back
	timerArmed           // pending: Stop and the fire race to claim it
	timerStopping        // Stop claimed it and is withdrawing the fire
	timerHandOff         // a started fire met that Stop: the second out recycles
)

// timerNode is one pooled timer.
type timerNode struct {
	t     *time.Timer
	state atomic.Uint64
	f     func(c any, i int64)
	c     any
	i     int64
}

// timerFree holds idle nodes, no fire of theirs pending, up to
// timerFreeCap, so a burst of timers does not pin its high-water mark.
// It is one list, not a sync.Pool: a pool keeps the node a P returned
// last where only that P takes it, and drops what it holds across two
// GCs, so under load an arm would often allocate a node after all.
var timerFree struct {
	sync.Mutex
	nodes []*timerNode
}

const timerFreeCap = 8192

// Timer is a handle to one armed timer. The zero Timer is inert: Stop on
// it returns false. Handles are plain values; copying is fine.
type Timer struct {
	n *timerNode
	// armed is the node's state at this arming.
	armed uint64
}

// AfterFunc arms a timer that calls f(c, i) once d has passed, on a
// goroutine of its own. The (c, i) indirection lets callers pass one
// static callback with per-timer arguments instead of allocating a
// closure per timer, which is what keeps an arm allocation-free.
func AfterFunc(d time.Duration, f func(c any, i int64), c any, i int64) Timer {
	var n *timerNode
	timerFree.Lock()
	if k := len(timerFree.nodes); k > 0 {
		n = timerFree.nodes[k-1]
		timerFree.nodes[k-1] = nil
		timerFree.nodes = timerFree.nodes[:k-1]
	}
	timerFree.Unlock()
	if n == nil {
		// Made stopped: the arm below must be the one that can fire.
		n = new(timerNode)
		n.t = time.AfterFunc(time.Hour, n.fire)
		n.t.Stop()
	}
	n.f, n.c, n.i = f, c, i
	s := n.state.Load() + timerArmed
	n.state.Store(s)
	n.t.Reset(d)
	return Timer{n: n, armed: s}
}

// Stop cancels the timer, reporting whether it did: true means f never
// runs. A timer that fired or was stopped, a handle whose node has been
// armed again since, and the zero Timer return false. Safe to call
// concurrently with the fire.
func (t Timer) Stop() bool {
	n := t.n
	if n == nil || !n.state.CompareAndSwap(t.armed, t.armed+1) {
		return false
	}
	// Stopping. The fire, if the runtime started it, finds this phase and
	// moves it to the hand-off; whoever finds the hand-off recycles.
	if n.t.Stop() || !n.state.CompareAndSwap(t.armed+1, t.armed+2) {
		n.state.Store(t.armed + 3)
		n.recycle()
	}
	return true
}

// fire is the runtime timer's function: it claims a pending arming and
// runs f, or meets the Stop that claimed it first (see Stop).
func (n *timerNode) fire() {
	for {
		s := n.state.Load()
		switch s & 3 {
		case timerArmed:
			if n.state.CompareAndSwap(s, s+3) {
				n.f(n.c, n.i)
				n.recycle()
				return
			}
		case timerStopping:
			if n.state.CompareAndSwap(s, s+1) {
				return
			}
		case timerHandOff:
			n.state.Store(s + 1)
			n.recycle()
			return
		default:
			panic("core: a timer fired while idle")
		}
	}
}

func (n *timerNode) recycle() {
	n.f, n.c = nil, nil
	timerFree.Lock()
	if len(timerFree.nodes) < timerFreeCap {
		timerFree.nodes = append(timerFree.nodes, n)
	}
	timerFree.Unlock()
}
