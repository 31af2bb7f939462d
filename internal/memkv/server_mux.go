package memkv

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"redundancy/internal/core"
)

// This file is the server's connection loop: it reads frames, executes
// them against the store, and appends responses to a coalesced write
// buffer drained by a flusher goroutine — the mirror image of the
// client's MuxClient.
//
//   - Responses interleave out of order. A delayed request (the Delay
//     hook) parks on the shared timer wheel and answers when its delay
//     elapses; requests behind it on the same connection are not
//     blocked.
//   - No goroutine, timer, or connection is held per in-flight request:
//     N delayed requests are N small heap nodes on the wheel.
//
// A client abandons a request by discarding its tag and keeps the
// connection; the server finishes the work and writes a response nobody
// reads — unless the whole connection closes, in which case parked
// delayed requests are dropped at fire time and counted in aborted_ops.

// muxSession is one connection's server state.
type muxSession struct {
	s    *Server
	conn net.Conn

	mu      sync.Mutex
	pending []byte
	closed  bool
	// watches maps a watch's identity — the tag of the opWatch frame
	// that opened it — to its store-side subscription. Each entry has a
	// pump goroutine moving store events into the pending buffer.
	watches map[uint64]*StoreWatch

	flushC chan struct{}
	done   chan struct{}
}

// muxWatchBacklogCap bounds the un-flushed response bytes a session may
// accumulate before its watches are treated as slow consumers: a client
// that stops reading its socket must shed its watches rather than grow
// the pending buffer without bound. Request/response traffic is bounded
// by the client's in-flight window; only server-push events are not,
// which is why the cap is enforced on the event path alone.
const muxWatchBacklogCap = 4 << 20

// serveMux runs the frame loop on a connection whose first byte
// identified it as framed. It returns when the connection dies; delayed
// requests still parked on the wheel detect the closed session at fire
// time.
func (s *Server) serveMux(conn net.Conn, r *bufio.Reader) {
	m := &muxSession{
		s:      s,
		conn:   conn,
		flushC: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go m.flusher()
	for {
		var f frame
		if err := readFrame(r, &f); err != nil {
			break
		}
		if s.Delay != nil {
			if d := s.Delay(); d > 0 {
				// Park the request on the shared wheel instead of holding
				// this goroutine: the loop keeps reading, later requests
				// overtake this one, and the response goes out when the
				// delay elapses.
				core.SharedWheel().AfterFunc(d, muxDelayFired, &muxDelayed{m: m, f: f}, 0)
				continue
			}
		}
		m.exec(&f)
	}
	m.shutdown()
}

// muxDelayed boxes one parked request for the wheel callback.
type muxDelayed struct {
	m *muxSession
	f frame
}

func muxDelayFired(c any, _ int64) {
	d := c.(*muxDelayed)
	d.m.exec(&d.f)
}

// exec executes one request frame and enqueues its response. It runs on
// the connection's read loop or, for delayed requests, on the wheel
// goroutine — store operations are sharded-mutex map accesses and the
// enqueue is a buffer append, both non-blocking enough for the wheel's
// callback contract.
func (m *muxSession) exec(f *frame) {
	s := m.s
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		// The client went away while this request was parked.
		s.aborted.Add(1)
		return
	}
	switch f.op {
	case opGet:
		s.cmdGet.Add(1)
		if val, flags, ok := s.store.Get(f.key); ok {
			s.getHits.Add(1)
			m.pending = appendFrame(m.pending, &frame{op: opValue, tag: f.tag, aux: flags, val: val})
		} else {
			s.getMisses.Add(1)
			m.pending = appendFrame(m.pending, &frame{op: opNotFound, tag: f.tag})
		}
	case opSet:
		if f.key == "" {
			m.pending = appendErrFrame(m.pending, f.tag, "set requires a key")
			break
		}
		s.cmdSet.Add(1)
		s.store.SetTTL(f.key, 0, f.val, time.Duration(f.aux)*time.Second)
		m.pending = appendFrame(m.pending, &frame{op: opStored, tag: f.tag})
	case opDelete:
		if f.key == "" {
			m.pending = appendErrFrame(m.pending, f.tag, "delete requires a key")
			break
		}
		if s.store.Delete(f.key) {
			m.pending = appendFrame(m.pending, &frame{op: opDeleted, tag: f.tag})
		} else {
			m.pending = appendFrame(m.pending, &frame{op: opNotFound, tag: f.tag})
		}
	case opGetV:
		s.cmdGet.Add(1)
		if val, flags, ver, ttl, ok := s.store.GetVersion(f.key); ok {
			s.getHits.Add(1)
			m.pending = appendFrame(m.pending, &frame{
				op: opValueV, tag: f.tag, aux: flags,
				val: appendVerPayload(nil, ver, ttl, val),
			})
		} else {
			s.getMisses.Add(1)
			m.pending = appendFrame(m.pending, &frame{op: opNotFound, tag: f.tag})
		}
	case opPutV:
		if f.key == "" {
			m.pending = appendErrFrame(m.pending, f.tag, "putv requires a key")
			break
		}
		ver, ttl, data, err := decodeVerPayload(f.val)
		if err != nil || ver == 0 {
			m.pending = appendErrFrame(m.pending, f.tag, "putv requires a versioned payload")
			break
		}
		s.cmdSet.Add(1)
		cur, applied := s.store.PutVersion(f.key, f.aux, data, time.Duration(ttl)*time.Second, ver)
		if !applied {
			s.stalePuts.Add(1)
		}
		resp := frame{op: opStoredV, tag: f.tag, val: appendVerPayload(nil, cur, 0, nil)}
		if applied {
			resp.aux = 1
		}
		m.pending = appendFrame(m.pending, &resp)
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
		resp := frame{op: opScanResp, tag: f.tag, val: val}
		if more {
			resp.aux = 1
		}
		m.pending = appendFrame(m.pending, &resp)
	case opCAS:
		if f.key == "" {
			m.pending = appendErrFrame(m.pending, f.tag, "cas requires a key")
			break
		}
		expect, _, data, err := decodeVerPayload(f.val)
		if err != nil {
			m.pending = appendErrFrame(m.pending, f.tag, "cas requires a versioned payload")
			break
		}
		s.cmdSet.Add(1)
		cur, applied := s.store.CompareAndSwap(f.key, 0, data, time.Duration(f.aux)*time.Second, expect)
		resp := frame{op: opCASResp, tag: f.tag, val: appendVerPayload(nil, cur, 0, nil)}
		if applied {
			resp.aux = 1
		}
		m.pending = appendFrame(m.pending, &resp)
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
	m.mu.Unlock()
	select {
	case m.flushC <- struct{}{}:
	default:
	}
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
	m.pending = appendFrame(m.pending, &frame{
		op: opEvent, tag: tag, aux: uint32(ev.Type), key: ev.Key,
		val: appendVerPayload(nil, ev.Version, ev.TTLSecs, ev.Value),
	})
	m.mu.Unlock()
	select {
	case m.flushC <- struct{}{}:
	default:
	}
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
	select {
	case m.flushC <- struct{}{}:
	default:
	}
}

// flusher drains the pending buffer with one write per pass — the
// server-side group commit matching the client's. Responses produced
// while a write is on the wire coalesce into the next write.
func (m *muxSession) flusher() {
	var scratch []byte
	for {
		select {
		case <-m.flushC:
		case <-m.done:
			return
		}
		for {
			m.mu.Lock()
			if len(m.pending) == 0 {
				m.mu.Unlock()
				break
			}
			buf := m.pending
			m.pending = scratch[:0]
			m.mu.Unlock()
			if _, err := m.conn.Write(buf); err != nil {
				m.shutdown()
				return
			}
			scratch = buf
		}
	}
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
	ws := make([]*StoreWatch, 0, len(m.watches))
	for _, sw := range m.watches {
		ws = append(ws, sw)
	}
	m.mu.Unlock()
	close(m.done)
	m.conn.Close()
	for _, sw := range ws {
		sw.Close()
	}
}
