package memkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"testing/iotest"
)

// FuzzFrameRoundTrip drives the v2 frame codec from both ends: a valid
// frame must encode and decode back to itself with nothing left over, a
// truncated prefix of a valid encoding must fail with an error (never a
// panic or a zero-error garbage frame), and readFrame over arbitrary
// bytes must return rather than panic. The corpus seeds cover every op,
// both length limits, and the empty frame; every value is also decoded as
// an opValueV into a released, dirty buffer.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(opGetV), uint64(1), uint32(0), "key", []byte("value"), -1)
	f.Add(byte(opSet), uint64(0), uint32(300), "k", []byte{}, 0)
	f.Add(byte(0x83), ^uint64(0), uint32(0), "", []byte(nil), 5) // no request uses 0x83
	f.Add(byte(opValueV), uint64(42), uint32(7), "", appendVerPayload(nil, 3, 0, []byte("stored bytes")), 18)
	f.Add(byte(opErr), uint64(9), uint32(0), "", []byte("boom"), 19)
	f.Add(byte(0xFF), uint64(3), ^uint32(0), string(bytes.Repeat([]byte{'x'}, maxKeyLen)), bytes.Repeat([]byte{0}, 64), 100)
	f.Add(byte(opStats), uint64(11), uint32(0), "", []byte(nil), 7)
	f.Add(byte(opStatsResp), uint64(11), uint32(0), "", appendStat(appendStat(nil, "cmd_get", 2), "aborted_ops", -1), 30)
	f.Fuzz(func(t *testing.T, op byte, tag uint64, aux uint32, key string, val []byte, cut int) {
		// Clamp the inputs into the codec's valid domain: ops live in
		// [0x80, 0xFF], keys and values within the protocol limits.
		op |= 0x80
		if len(key) > maxKeyLen {
			key = key[:maxKeyLen]
		}
		if len(val) > maxValueLen {
			val = val[:maxValueLen]
		}
		in := frame{op: op, tag: tag, aux: aux, key: key, val: val}
		enc := appendFrame(nil, &in)

		// Full decode must round-trip exactly and consume the whole
		// encoding.
		r := bufio.NewReader(bytes.NewReader(enc))
		var out frame
		if err := readFrame(r, &out); err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if out.op != in.op || out.tag != in.tag || out.aux != in.aux {
			t.Fatalf("header mismatch: got op=%#x tag=%d aux=%d, want op=%#x tag=%d aux=%d",
				out.op, out.tag, out.aux, in.op, in.tag, in.aux)
		}
		if out.key != in.key {
			t.Fatalf("key mismatch: got %q want %q", out.key, in.key)
		}
		if !bytes.Equal(out.val, in.val) {
			t.Fatalf("value mismatch: got %d bytes, want %d bytes", len(out.val), len(in.val))
		}
		if _, err := r.ReadByte(); err != io.EOF {
			t.Fatalf("decoder left bytes behind (next read: %v)", err)
		}

		// The same bytes as a stored value — the one reply whose value
		// lands in a pooled buffer — decoded into one a reader gave back
		// dirty: every byte of the result is the frame's, none the last
		// holder's.
		dirty := Take(len(val))
		for i := range dirty {
			dirty[i] = ^byte(i)
		}
		Release(dirty)
		var stored frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(appendFrame(nil, &frame{op: opValueV, tag: tag, val: val}))), &stored); err != nil {
			t.Fatalf("decode of a stored value failed: %v", err)
		}
		if !bytes.Equal(stored.val, val) {
			t.Fatalf("a stored value read into a reused buffer: got %d bytes %.32q, want %d bytes %.32q", len(stored.val), stored.val, len(val), val)
		}
		Release(stored.val)

		// Any strict prefix of a valid encoding must decode to an error:
		// a torn read is io.ErrUnexpectedEOF (or io.EOF for the empty
		// prefix), never a silently-truncated frame.
		if cut >= 0 {
			prefix := enc[:cut%len(enc)]
			var torn frame
			err := readFrame(bufio.NewReader(bytes.NewReader(prefix)), &torn)
			if err == nil {
				t.Fatalf("decode of %d-byte prefix of %d-byte frame succeeded", len(prefix), len(enc))
			}
			if len(prefix) > 0 && err == io.EOF {
				t.Fatalf("mid-frame truncation at %d bytes reported clean io.EOF", len(prefix))
			}
		}

		// The encoding reinterpreted as raw wire input must never panic,
		// whatever the decoder makes of it. Flipping the op's high bit
		// off exercises the op-range rejection on real header layouts.
		garbage := append([]byte(nil), enc...)
		garbage[0] &^= 0x80
		var g frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(garbage)), &g); err != errFrameOp {
			t.Fatalf("low op byte %#x decoded with err=%v, want errFrameOp", garbage[0], err)
		}
	})
}

// FuzzFrameDecodeRaw feeds fully arbitrary bytes to readFrame: the
// decoder must return an error or a frame, never panic, and must
// reject oversized lengths before allocating for them. The same bytes
// then go through the decoders that read a frame where it lies — the
// server's request reader, the client's started-put reply reader and its
// reader skipping a hit for a settled read — which must accept, reject
// and decode exactly what readFrame does.
func FuzzFrameDecodeRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x81, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 'k', 'e', 'y'})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderLen))
	f.Add([]byte{0x01, 2, 3})
	stored := appendVerFrame(nil, opStoredV, 5, 1, "", 99, 0, nil)
	f.Add(stored)                                                                // a put's reply, whole
	f.Add(stored[:len(stored)-4])                                                // and torn inside its version
	f.Add(appendFrame(nil, &frame{op: opStoredV, tag: 5, val: []byte("short")})) // a reply too short for a version
	f.Add(appendErrFrame(nil, 5, "putv requires a key"))
	f.Add(appendFrame(nil, &frame{op: opPutV, tag: 6, key: "k", val: []byte("eleven byte")})) // vlen < 12
	f.Add(appendVerFrame(nil, opPutV, 6, 0, "k", 7, 0, nil))                                  // vlen == 12
	f.Add(appendVerFrame(nil, opPutV, 6, 0, "k", 7, 30, []byte("data")))
	f.Add(appendVerFrame(nil, opCAS, 6, 30, "k", 7, 0, []byte("data")))
	f.Add(appendVerFrame(nil, opCAS, 6, 0, "", 0, 0, nil)[:frameHeaderLen+5]) // torn inside the version header
	// A second frame whose key lies across the reader's 4096-byte refill.
	pad := appendFrame(nil, &frame{op: opSet, tag: 1, key: "pad", val: make([]byte, 4096-2*frameHeaderLen-3-100)})
	f.Add(appendFrame(pad, &frame{op: opGetV, tag: 2, key: string(bytes.Repeat([]byte{'k'}, 200))}))
	hit := appendVerFrame(nil, opValueV, 5, 0, "", 9, 0, []byte("a loser's value"))
	f.Add(hit)                                                // a hit a settled read drops, whole
	f.Add(hit[:len(hit)-4])                                   // and torn inside the value being skipped
	f.Add(appendVerFrame(nil, opValueV, 5, 0, "", 9, 0, nil)) // with only a version to skip
	f.Add(appendFrame(nil, &frame{op: opValueV, tag: 5}))     // too short for a version
	f.Add(appendFrame(nil, &frame{op: opValueV, tag: 5, val: []byte("short")}))
	f.Add(appendFrame(hit, &frame{op: opNotFound, tag: 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		err := readFrame(bufio.NewReader(bytes.NewReader(data)), &fr)
		if err == nil {
			// A successful decode must re-encode to the exact bytes it
			// consumed: header + key + value.
			want := frameHeaderLen + len(fr.key) + len(fr.val)
			if got := len(appendFrame(nil, &fr)); got != want {
				t.Fatalf("re-encode produced %d bytes, want %d", got, want)
			}
		}
		fuzzRequestDecode(t, data)
		fuzzPutReplyDecode(t, data)
		fuzzDroppedReplyDecode(t, data)
	})
}

// fuzzRequestDecode reads data as the server does — head in place, then
// the rest — frame after frame, against readFrame over the same bytes.
// The in-place side is fed a byte at a time, so every Peek refills.
func fuzzRequestDecode(t *testing.T, data []byte) {
	ref := bufio.NewReader(bytes.NewReader(data))
	got := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data)))
	st := NewStore()
	st.Set("k", 0, nil) // a write to "k" borrows this key string
	for i := 0; i < 64; i++ {
		var want frame
		wantErr := readFrame(ref, &want)
		var q frame
		kb, vlen, gotErr := readFrameHeadRaw(got, &q)
		if gotErr == nil {
			gotErr = readRequestRest(got, &q, kb, vlen, st)
		}
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("frame %d: readFrame says %v, the request reader %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if q.op != want.op || q.tag != want.tag || q.aux != want.aux || q.key != want.key {
			t.Fatalf("frame %d: head %+v, readFrame gives %+v", i, q, want)
		}
		if q.op != opPutV && q.op != opCAS {
			if !bytes.Equal(q.val, want.val) {
				t.Fatalf("frame %d: value differs from readFrame's", i)
			}
			continue
		}
		ver, ttl, body, perr := decodeVerPayload(want.val)
		if q.short != (perr != nil) {
			t.Fatalf("frame %d: %d-byte payload marked short=%v, decodeVerPayload says %v", i, len(want.val), q.short, perr)
		}
		if !q.short && (q.ver != ver || q.ttl != ttl || !bytes.Equal(q.val, body) || cap(q.val) != len(body)) {
			t.Fatalf("frame %d: decoded in place (%d, %d, %d bytes cap %d), decodeVerPayload gives (%d, %d, %d bytes)",
				i, q.ver, q.ttl, len(q.val), cap(q.val), ver, ttl, len(body))
		}
	}
}

// decodedReply is the blocking path's view of a reply readFrame read
// whole: a versioned payload split into its header and data, as the
// client's reader decodes it in place (readReplyValue).
func decodedReply(f frame) frame {
	switch f.op {
	case opValueV, opStoredV, opCASResp, opEvent:
		var err error
		if f.ver, f.ttl, f.val, err = decodeVerPayload(f.val); err != nil {
			f.short = true
		}
	}
	return f
}

// deadConn is a connection that is only ever closed.
type deadConn struct{ net.Conn }

func (deadConn) Close() error { return nil }

// fuzzPutReplyDecode hands data to the client's reader as the reply to
// a started put: it must complete the put with exactly what the blocking
// path's decoder makes of the same frame, or — when the frame is torn —
// fail the connection and complete the put with that.
func fuzzPutReplyDecode(t *testing.T, data []byte) {
	var want frame
	wantErr := readFrame(bufio.NewReader(bytes.NewReader(data)), &want)
	if len(data) < frameHeaderLen || data[0] == opEvent || data[0] == opWatchEnd {
		return // no tag to claim, or a frame for the watch route
	}
	cn := bareConn()
	sink := newPutSink(1)
	cn.waiters[binary.BigEndian.Uint64(data[1:9])] = muxEntry{put: sink, slot: 0}
	gotErr := cn.readOne(bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data))))
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("readFrame says %v, the reply reader %v", wantErr, gotErr)
	}
	rs := sink.results(0)
	if wantErr != nil {
		// Torn before the tag could be claimed (no completion: fail
		// finds the entry) or after (one, wrapping ErrMuxConnLost).
		if len(rs) > 1 || (len(rs) == 1 && !errors.Is(rs[0].Err, ErrMuxConnLost)) {
			t.Fatalf("torn reply: completions %+v", rs)
		}
		return
	}
	d := decodedReply(want)
	cur, applied, perr := frameToWrite(&d, opStoredV)
	if len(rs) != 1 || rs[0].Current != cur || rs[0].Applied != applied || fmt.Sprint(rs[0].Err) != fmt.Sprint(perr) {
		t.Fatalf("completions %+v, the blocking decoder gives (%d, %v, %v)", rs, cur, applied, perr)
	}
}

// fuzzDroppedReplyDecode hands data to the client's reader as the reply
// to a started read whose call is already settled: a hit must be skipped
// whole — the reader left exactly where readFrame leaves it — and
// complete the read once, as dropped; anything else completes it with
// what the blocking path's decoder makes of the frame.
func fuzzDroppedReplyDecode(t *testing.T, data []byte) {
	ref := bufio.NewReader(bytes.NewReader(data))
	var want frame
	wantErr := readFrame(ref, &want)
	if len(data) < frameHeaderLen || data[0] == opEvent || data[0] == opWatchEnd {
		return
	}
	sink := newReadSink(1)
	sink.settled.Store(true)
	cn := bareConn()
	cn.waiters[binary.BigEndian.Uint64(data[1:9])] = muxEntry{sink: sink, slot: 0}
	got := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(data)))
	gotErr := cn.readOne(got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("readFrame says %v, the reply reader %v", wantErr, gotErr)
	}
	rs := sink.results(0)
	if wantErr != nil {
		// Torn before the tag could be claimed (no completion), inside a
		// skipped value (dropped already) or a decoded one (conn lost).
		if len(rs) > 1 || (len(rs) == 1 && !rs[0].dropped && !errors.Is(rs[0].err, ErrMuxConnLost)) {
			t.Fatalf("torn reply: completions %+v", rs)
		}
		return
	}
	rest, _ := io.ReadAll(ref)
	gotRest, _ := io.ReadAll(got)
	if !bytes.Equal(rest, gotRest) {
		t.Fatalf("the reply reader left %d bytes unread, readFrame %d", len(gotRest), len(rest))
	}
	if len(rs) != 1 {
		t.Fatalf("completions %+v, want exactly one", rs)
	}
	if want.op == opValueV && len(want.val) >= verPayloadHeader {
		if !rs[0].dropped || rs[0].val != nil || rs[0].err != nil {
			t.Fatalf("a hit for a settled read completed %+v, want dropped", rs[0])
		}
		return
	}
	d := decodedReply(want)
	v, gerr := frameToGetV(&d)
	if rs[0].dropped || !bytes.Equal(rs[0].val, v.Value) || fmt.Sprint(rs[0].err) != fmt.Sprint(gerr) {
		t.Fatalf("completion %+v, the blocking decoder gives (%q, %v)", rs[0], v.Value, gerr)
	}
}
