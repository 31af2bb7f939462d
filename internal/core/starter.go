package core

import "time"

// Starter is the non-blocking form of a replica: where an ArgReplica
// runs one copy to completion on the calling goroutine, a Starter only
// starts it — typically by enqueueing a tagged request on a multiplexed
// connection — and the outcome arrives later, on whichever goroutine
// learns of it. A multi-copy call over starters therefore costs no
// goroutine, no derived context and no cancellation channel per copy:
// the engine starts every copy on the caller's goroutine, takes the
// completions in its one transition (callFrame.on), and asks to
// withdraw what is still out when the call is decided. Register one
// beside the blocking replica with KeyedGroup.AddStarter; see call.go's
// file comment for where each form is used.
//
// The contract:
//
//   - Start(arg, sink, slot) enqueues one copy without blocking and
//     returns its ticket, or declines with ok == false having done
//     nothing (the engine then runs that copy through the member's
//     blocking replica). It must not call into the engine except through
//     sink.
//   - After an accepted Start, sink.Complete(slot, v, err) is called
//     exactly once, from any goroutine — possibly before Start returns —
//     unless Cancel(ticket) returns true first. Complete does not block.
//   - Cancel(ticket) withdraws the copy and reports whether it did: true
//     means Complete has not been and never will be called for it; false
//     means the completion was already claimed and is, or will be,
//     delivered. Cancel does not block, and a ticket stays safe to
//     Cancel after its copy completed (it reports false). A Starter
//     whose copies must land — a replicated write's — refuses every
//     Cancel: the decided call then withdraws nothing, and each copy
//     still out completes, and reports, after the caller returned.
//   - A Starter that holds a successful reply it has not decoded yet may
//     offer to skip it: sink.Drop(slot) true is that copy's one
//     completion — the call was already decided and had no use for the
//     value, so the Starter discards the reply where it lies — and false
//     has done nothing, Complete is still owed. Only a success may be
//     dropped; a failure, a miss, a timeout are always Completed.
//
// The copy runs under no context: the engine watches the caller's
// context itself and Cancels on its behalf, and a Starter bounds its own
// requests (a per-request timeout completes the copy with an error).
type Starter[K, T any] interface {
	Start(arg K, sink Sink[T], slot int) (ticket Ticket, ok bool)
	Cancel(ticket Ticket) bool
}

// Sink receives the completion of a started copy, one way or the other
// exactly once. The engine's call frame is the only implementation
// outside tests.
type Sink[T any] interface {
	// Complete delivers the copy's outcome.
	Complete(slot int, v T, err error)
	// Drop completes a copy that succeeded without delivering its value,
	// if the call is settled — its outcome can no longer change, so the
	// value would be thrown away — and reports whether it did. The race it
	// closes is the one Cancel loses: between the winner's completion and
	// the caller's goroutine running again to withdraw the losers, a
	// loser's reply can be claimed by its Starter; asking here, where the
	// reply lands, decides it without waiting for that goroutine. A
	// dropped copy answered: its latency is observed (as of now), it is
	// counted as dropped on its replica, not as cancelled or failed, and
	// it reports to the group's per-copy hook as a success with no value.
	// A loser that is not dropped — its reply decoded on a call that does
	// not settle (it collects outcomes), or in the same instant as the
	// winner's by another reader — is Completed, and its report carries
	// the value, which no caller receives (NewReportingKeyedGroup): the
	// stack gives back what it decoded for nobody. A Starter that never
	// asks (a write's) has every copy Completed.
	Drop(slot int) bool
}

// Ticket names one started copy to the Starter that issued it; the
// engine only stores it and hands it back to Cancel. Ref is typically
// the connection the request went out on and ID its tag there.
type Ticket struct {
	Ref any
	ID  uint64
}

// copySlot is one started copy's state in its call frame.
type copySlot struct {
	// at is when the copy started, written before Start so that Complete
	// (on another goroutine) reads it ordered by the Starter's own
	// synchronization.
	at time.Time
	// ticket and out belong to the engine's goroutine: out is set while
	// the copy is started and on has not seen it complete.
	ticket Ticket
	out    bool
}

// startCopy asks copy i's member to start it, with the frame as the
// sink; false means the Starter declined and the caller launches the
// copy the blocking way. What member.run does around a blocking replica
// is split across the start/complete pair: the governor bracket opens
// here and closes in Complete or end, and the slot's clock starts
// at now and is read in Complete.
func (fr *callFrame[K, T]) startCopy(i int, now time.Time) bool {
	m := fr.picked[i].m
	if len(fr.slots) < fr.n {
		if cap(fr.slots) < fr.n {
			fr.slots = make([]copySlot, fr.n)
		}
		fr.slots = fr.slots[:fr.n]
	}
	s := &fr.slots[i]
	if fr.gov != nil {
		fr.gov.copyStarted()
	}
	s.at = now
	tk, ok := m.starter.Start(fr.arg, fr, i)
	if !ok {
		if fr.gov != nil {
			fr.gov.copyDone()
		}
		return false
	}
	s.ticket, s.out = tk, true
	return true
}

// Complete implements Sink: a started copy's outcome, delivered on the
// Starter's goroutine straight into the call's results for on. It closes
// the governor bracket, reads the frame's clock once — the instant its
// event carries, and a success's latency, folded into the member's
// digest — and drops the copy's frame reference after delivering, the
// same order as a copy goroutine, so the proved-drained recycling
// discipline holds.
func (fr *callFrame[K, T]) Complete(slot int, v T, err error) {
	fr.complete(indexed[T]{val: v, err: err, idx: slot})
}

// complete is Complete for an event that may be a dropped copy's.
func (fr *callFrame[K, T]) complete(ev indexed[T]) {
	if fr.refs.Load() <= 0 {
		// Every copy holds a reference until it completes: a Starter that
		// completes one twice would otherwise write into a pooled frame.
		panic("redundancy: a copy completed into a released call frame")
	}
	if fr.gov != nil {
		fr.gov.copyDone()
	}
	ev.at = fr.now()
	if ev.err == nil {
		fr.picked[ev.idx].m.lat.observe(float64(ev.at.Sub(fr.slots[ev.idx].at)))
	}
	fr.deliver(ev)
}

// Drop implements Sink: once the call is settled, a started copy that
// succeeded completes as Complete would have it — bracket closed,
// latency observed, one event for the call's accounting, reference
// dropped — carrying no value. The event is queued behind the success
// that settled the call, which is where the call is decided, so nothing
// ever reads it as an outcome: drainCompleted or release's drain takes
// it and reports the copy, a success with no value (the copy was not
// reclaimed in flight, so it is not Cancelled either).
func (fr *callFrame[K, T]) Drop(slot int) bool {
	if !fr.settled() {
		return false
	}
	fr.picked[slot].m.dropped.Add(1)
	fr.complete(indexed[T]{idx: slot})
	return true
}

// copyDelivered notes that the call consumed copy i's completion, so
// end need not try to withdraw it.
func (fr *callFrame[K, T]) copyDelivered(i int) {
	if i < len(fr.slots) {
		fr.slots[i].out = false
	}
}
