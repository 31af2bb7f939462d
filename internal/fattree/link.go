package fattree

// link is a unidirectional link with a strict-priority, drop-tail output
// queue. Priority 0 (normal traffic) is always served before priority 1
// (replicated packets); within a priority the queue is FIFO. A packet
// already in transmission completes (no preemption), which is how strict
// prioritization behaves at packet granularity in real switches.
//
// The buffer is also priority-aware: an arriving original packet may push
// out queued replicas to make room, and replicas are only admitted into
// space originals are not using. Together with strict-priority dequeueing
// this implements the paper's requirement that replicated packets "can
// never delay the original, unreplicated traffic in the network" — neither
// in service order nor by occupying buffer space.
type link struct {
	eng      engine
	byteTime float64 // seconds per byte
	delay    float64 // propagation delay, seconds
	bufCap   int     // queue capacity in bytes (excluding the packet in service)

	busy   bool
	queues [2][]*packet
	bytes  [2]int // queued bytes per priority

	// Counters for diagnostics and tests.
	sentPackets    [2]int64
	droppedPackets [2]int64
	sentBytes      int64
}

func newLink(eng engine, bandwidthBps float64, delay float64, bufBytes int) *link {
	return &link{
		eng:      eng,
		byteTime: 8 / bandwidthBps, // bandwidth given in bits/second
		delay:    delay,
		bufCap:   bufBytes,
	}
}

// send enqueues (or begins transmitting) pkt; its arrive callback runs at
// the far end after serialization + propagation. Packets that do not fit
// are dropped silently, like a drop-tail switch queue.
func (l *link) send(pkt *packet) {
	prio := 0
	if pkt.lowPrio {
		prio = 1
	}
	if !l.busy {
		l.transmit(pkt, prio)
		return
	}
	if prio == 0 {
		// Originals only contend with other originals: push out queued
		// replicas (newest first) if that makes room.
		if l.bytes[0]+pkt.size > l.bufCap {
			l.droppedPackets[0]++
			return
		}
		for l.bytes[0]+l.bytes[1]+pkt.size > l.bufCap && len(l.queues[1]) > 0 {
			last := len(l.queues[1]) - 1
			l.bytes[1] -= l.queues[1][last].size
			l.queues[1] = l.queues[1][:last]
			l.droppedPackets[1]++
		}
	} else if l.bytes[0]+l.bytes[1]+pkt.size > l.bufCap {
		l.droppedPackets[1]++
		return
	}
	l.queues[prio] = append(l.queues[prio], pkt)
	l.bytes[prio] += pkt.size
}

func (l *link) transmit(pkt *packet, prio int) {
	l.busy = true
	l.sentPackets[prio]++
	l.sentBytes += int64(pkt.size)
	txTime := float64(pkt.size) * l.byteTime
	l.eng.After(txTime, func() {
		// Serialization finished: propagate, then hand to the next hop.
		p := pkt
		l.eng.After(l.delay, func() { p.arrive() })
		// Start the next queued packet, highest priority first.
		for q := 0; q < 2; q++ {
			if len(l.queues[q]) > 0 {
				next := l.queues[q][0]
				l.queues[q] = l.queues[q][1:]
				l.bytes[q] -= next.size
				l.transmit(next, q)
				return
			}
		}
		l.busy = false
	})
}
