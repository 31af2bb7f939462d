package memkv

import "time"

// deadlineQueue is one owner's deadlines under one runtime timer: a mux
// connection's request timeouts, a server session's parked requests, a
// store shard's TTLs. It is a min-heap of (at, E) under its owner's
// lock. The timer is made on the first deadline and re-armed with Reset
// only when an entry is earlier than the instant it is armed for.
//
// A fire means only "look at the clock": the owner's fire function takes
// its lock, pops every entry due by time.Now() (popDue), acts on each,
// and calls rearm. An entry never pops before its instant, and a late
// fire pops everything that fell due meanwhile. A fire that a Reset came
// too late for, or one for an entry pruned since, finds nothing due.
//
// Entries the owner no longer needs (an answered tag, an overwritten
// version) would stay until their instants, so the owner calls prune
// after a push: once the queue holds more than twice the owner's live
// count plus queueSlack, it keeps only what the owner still needs.
type deadlineQueue[E any] struct {
	// fire is the owner's function, run by the timer on a goroutine of
	// its own; it is set before the first push.
	fire func()
	h    []deadline[E]
	tm   *time.Timer
	// armed is the instant tm is armed for, zero while it is not.
	armed time.Time
}

type deadline[E any] struct {
	at time.Time
	e  E
}

// queueSlack is how many entries a queue may hold beyond twice its
// owner's live count before prune compacts it.
const queueSlack = 64

// push queues e to fall due at at.
func (q *deadlineQueue[E]) push(at time.Time, e E) {
	q.h = append(q.h, deadline[E]{at: at, e: e})
	for i := len(q.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.h[i].at.Before(q.h[p].at) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
	if q.armed.IsZero() || at.Before(q.armed) {
		q.arm(at)
	}
}

func (q *deadlineQueue[E]) arm(at time.Time) {
	q.armed = at
	if q.tm == nil {
		q.tm = time.AfterFunc(time.Until(at), q.fire)
	} else {
		q.tm.Reset(time.Until(at))
	}
}

// popDue removes and returns the earliest entry if it is due at now.
func (q *deadlineQueue[E]) popDue(now time.Time) (e E, ok bool) {
	if len(q.h) == 0 || q.h[0].at.After(now) {
		return e, false
	}
	e = q.h[0].e
	last := len(q.h) - 1
	q.h[0], q.h[last] = q.h[last], deadline[E]{}
	q.h = q.h[:last]
	q.down(0)
	return e, true
}

// rearm ends a fire: it arms the timer for the earliest entry left.
func (q *deadlineQueue[E]) rearm() {
	q.armed = time.Time{}
	if len(q.h) > 0 {
		q.arm(q.h[0].at)
	}
}

// prune keeps only the entries keep accepts, once the queue holds more
// than twice live plus queueSlack. live is the owner's count of what its
// entries can refer to.
func (q *deadlineQueue[E]) prune(live int, keep func(E) bool) {
	if len(q.h) <= 2*live+queueSlack {
		return
	}
	k := 0
	for _, d := range q.h {
		if keep(d.e) {
			q.h[k] = d
			k++
		}
	}
	clear(q.h[k:])
	q.h = q.h[:k]
	for i := k/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// close stops the timer and drops every entry; a fire already on its
// way finds nothing due.
func (q *deadlineQueue[E]) close() {
	q.h, q.armed = nil, time.Time{}
	if q.tm != nil {
		q.tm.Stop()
	}
}

func (q *deadlineQueue[E]) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(q.h) {
			return
		}
		if r := c + 1; r < len(q.h) && q.h[r].at.Before(q.h[c].at) {
			c = r
		}
		if !q.h[c].at.Before(q.h[i].at) {
			return
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
}
