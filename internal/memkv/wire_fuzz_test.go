package memkv

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

// FuzzFrameRoundTrip drives the v2 frame codec from both ends: a valid
// frame must encode and decode back to itself with nothing left over, a
// truncated prefix of a valid encoding must fail with an error (never a
// panic or a zero-error garbage frame), and readFrame over arbitrary
// bytes must return rather than panic. The corpus seeds cover every op,
// both length limits, and the empty frame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(byte(opGet), uint64(1), uint32(0), "key", []byte("value"), -1)
	f.Add(byte(opSet), uint64(0), uint32(300), "k", []byte{}, 0)
	f.Add(byte(opDelete), ^uint64(0), uint32(0), "", []byte(nil), 5)
	f.Add(byte(opValue), uint64(42), uint32(7), "", []byte("stored bytes"), 18)
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
// reject oversized lengths before allocating for them.
func FuzzFrameDecodeRaw(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x81, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 'k', 'e', 'y'})
	f.Add(bytes.Repeat([]byte{0xFF}, frameHeaderLen))
	f.Add([]byte{0x01, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr frame
		err := readFrame(bufio.NewReader(bytes.NewReader(data)), &fr)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the exact bytes it
		// consumed: header + key + value.
		want := frameHeaderLen + len(fr.key) + len(fr.val)
		if got := len(appendFrame(nil, &fr)); got != want {
			t.Fatalf("re-encode produced %d bytes, want %d", got, want)
		}
	})
}
