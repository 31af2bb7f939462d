package memkv

import (
	"bufio"
	"encoding/binary"
	"net"
	"time"
)

// This file is the server's connection loop: it reads frames, executes
// them against the store, and writes responses through the same
// wireConn a MuxClient writes its requests through (wire.go), so both
// ends coalesce their frames with one writer.
//
//   - Responses interleave out of order. A delayed request (the Delay
//     hook) parks in its session's deadline queue and answers when its
//     delay elapses; requests behind it on the same connection are not
//     blocked.
//   - No goroutine, timer, or connection is held per in-flight request:
//     N delayed requests are N entries of one deadlineQueue, under one
//     timer per connection, and the requests that fall due together run
//     on that timer's one goroutine.
//
// A client abandons a request by discarding its tag and keeps the
// connection; the server finishes the work and writes a response nobody
// reads — unless the whole connection closes, in which case parked
// delayed requests are dropped at once and counted in aborted_ops.

// muxSession is one connection's server state.
type muxSession struct {
	// wireConn's mu also guards the fields below.
	wireConn
	s *Server

	closed bool
	// watches maps a watch's identity — the tag of the opWatch frame
	// that opened it — to its store-side subscription. Each entry has a
	// pump goroutine moving store events into the pending buffer.
	watches map[uint64]*StoreWatch
	// parked holds the delayed requests until they fall due (park).
	parked deadlineQueue[frame]
}

// muxWatchBacklogCap bounds the un-flushed response bytes a session may
// accumulate before its watches are treated as slow consumers: a client
// that stops reading its socket must shed its watches rather than grow
// the pending buffer without bound. Request/response traffic is bounded
// by the client's in-flight window; only server-push events are not,
// which is why the cap is enforced on the event path alone.
const muxWatchBacklogCap = 4 << 20

// serveMux runs the frame loop on a connection whose first byte
// identified it as framed. It returns when the connection dies, and the
// session's shutdown drops the delayed requests still parked.
//
// A lookup (the read, getv) is executed on the key bytes in the
// reader's window, before they are consumed, and so is a versioned write
// (putv, cas) whose key and value fit the window: the store copies what
// it keeps, so an overwrite of a value of the same length allocates
// nothing, and a write that loses allocates nothing. Everything else — a
// watch, a scan, a write too long for the window, and any request the
// Delay hook parks past this iteration — gets a key string, and a write
// its value at exact length; a write to a key the store holds borrows
// the store's string.
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader) {
	m := &muxSession{wireConn: newWireConn(conn), s: s}
	m.parked.fire = m.parkedDue
	go m.flusher(func(error) { m.shutdown() })
	for {
		var q frame
		kb, vlen, err := readFrameHeadRaw(r, &q)
		if err != nil {
			break
		}
		var d time.Duration
		if s.Delay != nil {
			d = s.Delay()
		}
		if d <= 0 && vlen == 0 && q.op == opGetV {
			m.execInWindow(&q, kb)
			r.Discard(len(kb))
			continue
		}
		if d <= 0 && (q.op == opPutV || q.op == opCAS) && len(kb)+vlen <= r.Size() {
			// The Peek may slide the window: kb is taken again from it.
			b, err := r.Peek(len(kb) + vlen)
			if err != nil {
				break
			}
			if q.ver, q.ttl, q.val, err = decodeVerPayload(b[len(kb):]); err != nil {
				q.short = true
			}
			m.execInWindow(&q, b[:len(kb)])
			r.Discard(len(b))
			continue
		}
		if err := readRequestRest(r, &q, kb, vlen, s.store); err != nil {
			break
		}
		if d > 0 {
			m.park(q, d)
			continue
		}
		m.exec(&q)
	}
	m.shutdown()
}

// readRequestRest finishes reading a request whose head readFrameHeadRaw
// left in q, for the requests that outlive the reader's window: it makes
// the key bytes kb a string — for a read or a write, the string st
// already holds if the key is there — consumes them, and reads the vlen
// value bytes that follow. A versioned write's payload header is decoded
// in place and only its data allocated (readVerValue); every other value
// is read whole into q.val.
func readRequestRest(r *bufio.Reader, q *frame, kb []byte, vlen int, st *Store) error {
	versioned := q.op == opPutV || q.op == opCAS
	if versioned || q.op == opSet || q.op == opGetV {
		q.key = st.keyString(kb)
	} else {
		q.key = string(kb)
	}
	r.Discard(len(kb))
	if versioned {
		return readVerValue(r, q, vlen)
	}
	return readFrameValue(r, q, vlen)
}

// park holds q for d instead of holding the read loop: the loop keeps
// reading, later requests overtake this one, and the response goes out
// when the delay elapses. The session's one timer serves every parked
// request, so a burst that falls due together runs on one goroutine,
// not on one each.
func (m *muxSession) park(q frame, d time.Duration) {
	at := time.Now().Add(d)
	m.mu.Lock()
	if m.closed {
		m.s.aborted.Add(1)
	} else {
		m.parked.push(at, q)
	}
	m.mu.Unlock()
}

// parkedDue is the parked requests' timer function: it executes, in
// deadline order, every parked request whose delay has elapsed, and
// re-arms for the rest.
func (m *muxSession) parkedDue() {
	m.mu.Lock()
	now := time.Now()
	for {
		q, ok := m.parked.popDue(now)
		if !ok {
			break
		}
		m.execLocked(&q)
	}
	m.parked.rearm()
	m.mu.Unlock()
	m.signalFlush()
}

// execInWindow executes a lookup, or a versioned write, on key bytes —
// and for a write value bytes in q.val — that alias the connection
// reader's window, and enqueues its response. Only the read loop calls
// it, between peeking the bytes and consuming them.
func (m *muxSession) execInWindow(q *frame, kb []byte) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.s.aborted.Add(1)
		return
	}
	if q.op == opGetV {
		m.pending = appendLookupReply(m.pending, m.s, q.tag, kb)
	} else {
		m.pending = appendWriteReply(m.pending, m.s, q, kb, false)
	}
	m.mu.Unlock()
	m.signalFlush()
}

// appendLookupReply executes a read (opGetV) against the store and
// appends its response to dst, copying the value while it holds the
// shard's read lock. key is the frame's key as a string (exec) or as the
// bytes on the wire (execInWindow). The remaining TTL is rounded up: a
// key is readable until its deadline, and 0 still means no expiry.
func appendLookupReply[K string | []byte](dst []byte, s *Server, tag uint64, key K) []byte {
	s.cmdGet.Add(1)
	sh, it, left, ok := view(s.store, key)
	if !ok {
		s.getMisses.Add(1)
		return appendFrame(dst, &frame{op: opNotFound, tag: tag})
	}
	dst = appendVerFrame(dst, opValueV, tag, it.flags, "", it.version, ttlSeconds(left), it.data)
	sh.mu.RUnlock()
	s.getHits.Add(1)
	return dst
}

// appendWriteReply executes an opPutV or opCAS against the store and
// appends its response to dst. key is the frame's key as a string (exec)
// or as the bytes on the wire (execInWindow); owned says whether q.val
// was read for the store to keep (see putVersion).
func appendWriteReply[K string | []byte](dst []byte, s *Server, q *frame, key K, owned bool) []byte {
	if q.op == opPutV {
		if len(key) == 0 {
			return appendErrFrame(dst, q.tag, "putv requires a key")
		}
		if q.short || q.ver == 0 {
			return appendErrFrame(dst, q.tag, "putv requires a versioned payload")
		}
		s.cmdSet.Add(1)
		cur, applied := putVersion(s.store, key, q.aux, q.val, time.Duration(q.ttl)*time.Second, q.ver, owned)
		if !applied {
			s.stalePuts.Add(1)
		}
		return appendVerFrame(dst, opStoredV, q.tag, boolAux(applied), "", cur, 0, nil)
	}
	if len(key) == 0 {
		return appendErrFrame(dst, q.tag, "cas requires a key")
	}
	if q.short {
		return appendErrFrame(dst, q.tag, "cas requires a versioned payload")
	}
	s.cmdSet.Add(1)
	cur, applied := compareAndSwap(s.store, key, 0, q.val, time.Duration(q.aux)*time.Second, q.ver, owned)
	return appendVerFrame(dst, opCASResp, q.tag, boolAux(applied), "", cur, 0, nil)
}

// exec executes one request frame on the connection's read loop and
// enqueues its response.
func (m *muxSession) exec(f *frame) {
	m.mu.Lock()
	m.execLocked(f)
	m.mu.Unlock()
	m.signalFlush()
}

// execLocked is exec's body, run with m.mu held: by exec, or by the
// parked requests' timer for each one that falls due.
func (m *muxSession) execLocked(f *frame) {
	s := m.s
	if m.closed {
		// The connection closed before this request ran.
		s.aborted.Add(1)
		return
	}
	switch f.op {
	case opGetV:
		m.pending = appendLookupReply(m.pending, s, f.tag, f.key)
	case opSet:
		if f.key == "" {
			m.pending = appendErrFrame(m.pending, f.tag, "set requires a key")
			break
		}
		s.cmdSet.Add(1)
		s.store.SetTTL(f.key, 0, f.val, time.Duration(f.aux)*time.Second)
		m.pending = appendFrame(m.pending, &frame{op: opStored, tag: f.tag})
	case opPutV, opCAS:
		m.pending = appendWriteReply(m.pending, s, f, f.key, true)
	case opScan:
		limit := int(f.aux)
		if limit < 1 || limit > maxScanLimit {
			limit = maxScanLimit
		}
		s.cmdScan.Add(1)
		entries, more := s.store.Scan(f.key, limit)
		var val []byte
		for i := range entries {
			val = appendScanEntry(val, &entries[i])
		}
		m.pending = appendFrame(m.pending, &frame{op: opScanResp, tag: f.tag, aux: boolAux(more), val: val})
	case opWatch:
		if m.watches == nil {
			m.watches = make(map[uint64]*StoreWatch)
		}
		if _, dup := m.watches[f.tag]; dup {
			m.pending = appendErrFrame(m.pending, f.tag, "watch tag %d already in use", f.tag)
			break
		}
		sw := s.store.Watch(f.key, int(f.aux))
		m.watches[f.tag] = sw
		m.pending = appendFrame(m.pending, &frame{op: opWatchOK, tag: f.tag, aux: uint32(cap(sw.ch))})
		go m.pumpWatch(f.tag, sw)
	case opUnwatch:
		if len(f.val) != 8 {
			m.pending = appendErrFrame(m.pending, f.tag, "unwatch requires a watch tag")
			break
		}
		wtag := binary.BigEndian.Uint64(f.val)
		if sw := m.watches[wtag]; sw != nil {
			// Close the store watch; its pump drains any buffered events
			// and then emits the opWatchEnd for wtag. Unwatching an
			// unknown tag is a no-op ack (the watch may have just ended).
			sw.Close()
		}
		m.pending = appendFrame(m.pending, &frame{op: opUnwatched, tag: f.tag})
	case opStats:
		var val []byte
		for name, v := range s.Stats() {
			val = appendStat(val, name, v)
		}
		m.pending = appendFrame(m.pending, &frame{op: opStatsResp, tag: f.tag, val: val})
	default:
		m.pending = appendErrFrame(m.pending, f.tag, "unknown op %#x", f.op)
	}
}

// boolAux is a response's aux field for a yes/no outcome (applied, more).
func boolAux(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// pumpWatch moves one watch's store events into the session's pending
// buffer, then emits the stream's terminal opWatchEnd. It is the only
// goroutine the watch path holds per subscription, and it spends its
// life parked on the event channel — the store's notify side never
// blocks on this session (bounded channel, non-blocking send).
func (m *muxSession) pumpWatch(tag uint64, sw *StoreWatch) {
	for ev := range sw.Events() {
		if !m.pushEvent(tag, &ev) {
			// Session backlog over cap (or session closed): shed this
			// watch rather than buffer without bound. Buffered events
			// after the gap are discarded — the stream is ending anyway.
			sw.closeWith(ErrSlowWatcher)
			break
		}
	}
	reason := uint32(watchEndClosed)
	if sw.Err() != nil {
		reason = watchEndSlow
	}
	m.endWatch(tag, reason)
}

// pushEvent appends one opEvent frame, reporting false if the session
// is closed or its write backlog is over muxWatchBacklogCap (the
// session-level slow-consumer guard; the caller sheds the watch).
func (m *muxSession) pushEvent(tag uint64, ev *WatchEvent) bool {
	m.mu.Lock()
	if m.closed || len(m.pending) > muxWatchBacklogCap {
		m.mu.Unlock()
		return false
	}
	m.pending = appendVerFrame(m.pending, opEvent, tag, uint32(ev.Type), ev.Key, ev.Version, ev.TTLSecs, ev.Value)
	m.mu.Unlock()
	m.signalFlush()
	return true
}

// endWatch removes the watch from the session and sends its terminal
// opWatchEnd (skipped if the connection already died).
func (m *muxSession) endWatch(tag uint64, reason uint32) {
	m.mu.Lock()
	delete(m.watches, tag)
	if !m.closed {
		m.pending = appendFrame(m.pending, &frame{op: opWatchEnd, tag: tag, aux: reason})
	}
	m.mu.Unlock()
	m.signalFlush()
}

// shutdown marks the session closed (idempotent): parked delayed
// requests become aborts at fire time, the flusher exits, and every
// store watch the session held is released (their pumps drain and exit;
// no opWatchEnd goes out — the connection is gone).
func (m *muxSession) shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.pending = nil
	// The parked requests will never be answered: drop them now, with
	// their timer, rather than at their deadlines.
	m.s.aborted.Add(int64(len(m.parked.h)))
	m.parked.close()
	ws := make([]*StoreWatch, 0, len(m.watches))
	for _, sw := range m.watches {
		ws = append(ws, sw)
	}
	m.mu.Unlock()
	close(m.done)
	m.c.Close()
	for _, sw := range ws {
		sw.Close()
	}
}
