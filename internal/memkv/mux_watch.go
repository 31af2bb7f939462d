package memkv

import (
	"context"
	"encoding/binary"
	"errors"
	"time"
)

// This file is the client half of the streaming surface: CAS requests
// (ordinary request/response frames) and watch streams — the first
// server-push traffic the mux carries. A watch rides the same tag space
// as requests: the opWatch frame's tag becomes the stream's identity,
// and every opEvent the server pushes carries it. The reader goroutine
// demuxes events to a per-watch channel exactly as it demuxes responses
// to waiters; a slow consumer is disconnected rather than allowed to
// head-of-line-block the connection every other request shares.

// ErrWatchClosed reports a watch stream the server ended deliberately
// (session shutdown path) rather than for slowness or connection loss.
var ErrWatchClosed = errors.New("memkv: watch closed by server")

// WatchStream is one live prefix subscription on a MuxClient. Consume
// Events until it closes, then check Err for why: nil after a local
// Close, ErrSlowWatcher if the consumer fell behind, ErrWatchClosed if
// the server ended it, an ErrMuxConnLost-wrapping error if the
// connection died (redial and re-Watch to resume — events between loss
// and resubscription are gone; the redundant sharded watch exists to
// cover exactly that gap with the other replicas).
type WatchStream struct {
	eventStream
	cn  *muxConn
	tag uint64
}

// Done returns a channel closed when the stream ends (for select
// without consuming events).
func (s *WatchStream) Done() <-chan struct{} { return s.done }

// Close ends the stream and tells the server (best effort) to drop the
// subscription. Idempotent.
func (s *WatchStream) Close() { s.closeAndUnwatch(nil) }

// unwatch forgets the ended stream's route and enqueues a
// fire-and-forget opUnwatch so the server releases the subscription
// (skipped if the connection is already dead). The opUnwatched ack
// arrives with no waiter registered and is discarded — the mux
// cancellation idiom.
func (s *WatchStream) unwatch() {
	cn := s.cn
	cn.mu.Lock()
	if cn.watches != nil {
		delete(cn.watches, s.tag)
	}
	dead := cn.dead
	if !dead {
		cn.tag++
		var tb [8]byte
		binary.BigEndian.PutUint64(tb[:], s.tag)
		cn.pending = appendFrame(cn.pending, &frame{op: opUnwatch, tag: cn.tag, val: tb[:]})
	}
	cn.mu.Unlock()
	if !dead {
		cn.signalFlush()
	}
}

// closeAndUnwatch ends the stream with err and, if this call ended it,
// releases the server's subscription.
func (s *WatchStream) closeAndUnwatch(err error) {
	if s.end(err) {
		s.unwatch()
	}
}

// deliver routes one server-push frame (opEvent or opWatchEnd) into the
// stream. It runs on the connection's reader goroutine and must not
// block: a full event buffer disconnects this stream instead of
// stalling every request and watch sharing the connection.
func (s *WatchStream) deliver(f *frame) {
	switch {
	case f.op == opWatchEnd:
		err := ErrWatchClosed
		if f.aux == watchEndSlow {
			err = ErrSlowWatcher
		}
		s.end(err)
	case f.short:
		s.closeAndUnwatch(errVerPayload)
	case s.offer(WatchEvent{Type: EventType(f.aux), Key: f.key, Value: f.val, Version: f.ver, TTLSecs: f.ttl}):
		s.unwatch()
	}
}

// Watch opens a prefix subscription on the client's connection and
// returns its stream once the server acknowledges it. buf sizes the
// client-side event buffer (non-positive = DefaultWatchBuffer) and is
// also requested as the server-side buffer. The stream ends when ctx is
// cancelled, Close is called, the consumer falls behind, or the
// connection dies — it does NOT resubscribe on its own (the sharded
// layer owns that policy).
//
// The opWatch request is registered like any blocking call, and the
// stream's event route under the same lock hold: with the route in place
// before the frame is on the wire, no event can arrive unroutable,
// however fast the server pushes after opWatchOK.
func (m *MuxClient) Watch(ctx context.Context, prefix string, buf int) (*WatchStream, error) {
	st := &WatchStream{eventStream: newEventStream(prefix, buf)}
	cn, err := m.lockConn(ctx)
	if err != nil {
		return nil, err
	}
	st.cn = cn
	w := muxWaiterPool.Get().(*muxWaiter)
	req := frame{op: opWatch, key: prefix, aux: uint32(cap(st.ch))}
	req.tag = cn.registerLocked(muxEntry{w: w}, m.timeout)
	st.tag = req.tag
	if cn.watches == nil {
		cn.watches = make(map[uint64]*WatchStream)
	}
	cn.watches[req.tag] = st
	cn.pending = appendFrame(cn.pending, &req)
	cn.mu.Unlock()
	cn.signalFlush()

	fr, err := m.wait(ctx, cn, req.tag, w)
	if err == nil && fr.op != opWatchOK {
		err = replyErr(&fr)
	}
	if err != nil {
		st.closeAndUnwatch(err)
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				st.closeAndUnwatch(context.Cause(ctx))
			case <-st.done:
			}
		}()
	}
	return st, nil
}

// CAS stores value under key only if the stored version equals expect
// (0 = create if absent; an expired key counts as absent). On success
// applied is true and current is the freshly minted version; on
// conflict applied is false and current is the version the server
// holds (0 if absent) — retry from it if the caller's intent survives
// a concurrent update.
func (m *MuxClient) CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (current uint64, applied bool, err error) {
	if err := ValidateKey(key); err != nil {
		return 0, false, err
	}
	if err := validateValue(len(value)); err != nil {
		return 0, false, err
	}
	fr, err := m.do(ctx, frame{op: opCAS, key: key, aux: ttlSeconds(ttl), val: appendVerPayload(nil, expect, 0, value)})
	if err != nil {
		return 0, false, err
	}
	return frameToWrite(&fr, opCASResp)
}
