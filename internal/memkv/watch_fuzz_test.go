package memkv

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzWatchCASFrameRoundTrip drives the streaming/conditional ops
// through the wire codec: a CAS request (expect-version payload) and a
// server-push event frame (type in aux, key, versioned payload) must
// survive encode/decode byte-exact, and decoding arbitrary mutations of
// the encoding must fail cleanly, never panic — these frames cross
// trust boundaries in both directions (opEvent is the first frame a
// client parses that it never asked for).
func FuzzWatchCASFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint32(1), []byte("new value"), "key", uint64(9), -1)
	f.Add(uint64(1755000000000000000), uint32(2), []byte{}, "a/b", uint64(1), 0)
	f.Add(^uint64(0), uint32(3), bytes.Repeat([]byte{0xEE}, 128), "", uint64(0), 7)
	f.Add(uint64(42), uint32(300), []byte("cas body"), "prefix/watched", ^uint64(0), 20)
	f.Fuzz(func(t *testing.T, version uint64, aux uint32, data []byte, key string, tag uint64, cut int) {
		if len(key) > maxKeyLen {
			key = key[:maxKeyLen]
		}
		if len(data) > maxValueLen-verPayloadHeader {
			data = data[:maxValueLen-verPayloadHeader]
		}

		// CAS request: expect-version + new value in the payload, TTL in
		// aux — exactly as MuxClient.CAS builds it.
		casReq := frame{op: opCAS, tag: tag, aux: aux, key: key, val: appendVerPayload(nil, version, 0, data)}
		enc := appendFrame(nil, &casReq)
		var out frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(enc)), &out); err != nil {
			t.Fatalf("cas frame decode: %v", err)
		}
		if out.op != opCAS || out.tag != tag || out.aux != aux || out.key != key {
			t.Fatalf("cas frame header round trip: got %+v", out)
		}
		expect, _, body, err := decodeVerPayload(out.val)
		if err != nil {
			t.Fatalf("cas payload decode: %v", err)
		}
		if expect != version || !bytes.Equal(body, data) {
			t.Fatalf("cas payload round trip: got (%d, %d bytes), want (%d, %d bytes)",
				expect, len(body), version, len(data))
		}

		// Event push: the server-minted frame a watch client demuxes.
		evType := EventType(aux%3 + 1)
		evIn := frame{op: opEvent, tag: tag, aux: uint32(evType), key: key,
			val: appendVerPayload(nil, version, aux, data)}
		encEv := appendFrame(nil, &evIn)
		var evOut frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(encEv)), &evOut); err != nil {
			t.Fatalf("event frame decode: %v", err)
		}
		if evOut.op != opEvent || evOut.tag != tag || EventType(evOut.aux) != evType || evOut.key != key {
			t.Fatalf("event frame header round trip: got %+v", evOut)
		}
		ver, ttl, evData, err := decodeVerPayload(evOut.val)
		if err != nil {
			t.Fatalf("event payload decode: %v", err)
		}
		if ver != version || ttl != aux || !bytes.Equal(evData, data) {
			t.Fatalf("event payload round trip: got (%d, %d, %d bytes), want (%d, %d, %d bytes)",
				ver, ttl, len(evData), version, aux, len(data))
		}

		// A truncated event frame must error (or report a clean EOF at a
		// frame boundary), never panic or hand back a torn frame.
		if cut >= 0 && len(encEv) > 0 {
			prefix := encEv[:cut%len(encEv)]
			var torn frame
			if err := readFrame(bufio.NewReader(bytes.NewReader(prefix)), &torn); err == nil {
				t.Fatalf("truncated event frame decoded: %+v", torn)
			}
		}

		// Corrupting the op byte below 0x80 must be rejected as a protocol
		// violation (every frame op has the high bit set).
		mut := append([]byte(nil), encEv...)
		mut[0] &= 0x7F
		var bad frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(mut)), &bad); err != errFrameOp {
			t.Fatalf("low-bit op decode err = %v, want errFrameOp", err)
		}
	})
}
