package memkv

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// FuzzVersionedFrameRoundTrip drives the v2 versioned payload through a
// full frame round trip: a versioned put/value payload must encode into
// a frame, survive the wire codec, and decode back to the same version,
// TTL, and data; a scan-entry payload must round-trip entry lists the
// same way; and decodeVerPayload/decodeScanEntries over arbitrary or
// truncated bytes must fail cleanly, never panic.
func FuzzVersionedFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(0), []byte("value"), "key", -1)
	f.Add(uint64(0), uint32(300), []byte{}, "k", 0)
	f.Add(^uint64(0), ^uint32(0), bytes.Repeat([]byte{0xAB}, 64), "scan-key", 5)
	f.Add(uint64(1755000000000000000), uint32(60), []byte("wall-clock version"), "", 11)
	f.Add(uint64(2), uint32(1), []byte("v"), strings.Repeat("k", maxKeyLen), 3) // a sibling would be one byte too long
	f.Fuzz(func(t *testing.T, version uint64, ttlSecs uint32, data []byte, key string, cut int) {
		if len(key) > maxKeyLen {
			key = key[:maxKeyLen]
		}
		if len(data) > maxValueLen-verPayloadHeader {
			data = data[:maxValueLen-verPayloadHeader]
		}

		// Versioned payload inside a frame: opPutV carries the payload as
		// the frame value, exactly as MuxClient.PutV builds it.
		payload := appendVerPayload(nil, version, ttlSecs, data)
		in := frame{op: opPutV, tag: 7, key: key, val: payload}
		enc := appendFrame(nil, &in)
		var out frame
		if err := readFrame(bufio.NewReader(bytes.NewReader(enc)), &out); err != nil {
			t.Fatalf("frame decode: %v", err)
		}
		gotVer, gotTTL, gotData, err := decodeVerPayload(out.val)
		if err != nil {
			t.Fatalf("payload decode: %v", err)
		}
		if gotVer != version || gotTTL != ttlSecs || !bytes.Equal(gotData, data) {
			t.Fatalf("payload round trip: got (%d, %d, %d bytes), want (%d, %d, %d bytes)",
				gotVer, gotTTL, len(gotData), version, ttlSecs, len(data))
		}

		// Truncating the payload below its header must fail with
		// errVerPayload, not return garbage.
		if cut >= 0 && verPayloadHeader > 0 {
			if _, _, _, err := decodeVerPayload(payload[:cut%verPayloadHeader]); err != errVerPayload {
				t.Fatalf("truncated payload decode err = %v, want errVerPayload", err)
			}
		}

		// Scan entries: pack the same data as a one-entry page plus a
		// fixed sibling, round-trip, and check field fidelity. The key
		// leaves room for the sibling's extra byte.
		if key == "" {
			key = "k"
		}
		if len(key) > maxKeyLen-1 {
			key = key[:maxKeyLen-1]
		}
		entries := []ScanEntry{
			{Key: key, Flags: 3, Version: version, TTLSecs: ttlSecs, Value: data},
			{Key: key + "~", Flags: 0, Version: version + 1, TTLSecs: 0, Value: nil},
		}
		var page []byte
		for i := range entries {
			page = appendScanEntry(page, &entries[i])
		}
		got, err := decodeScanEntries(page)
		if err != nil {
			t.Fatalf("scan page decode: %v", err)
		}
		if len(got) != len(entries) {
			t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
		}
		for i := range entries {
			if got[i].Key != entries[i].Key || got[i].Flags != entries[i].Flags ||
				got[i].Version != entries[i].Version || got[i].TTLSecs != entries[i].TTLSecs ||
				!bytes.Equal(got[i].Value, entries[i].Value) {
				t.Fatalf("entry %d mismatch: got %+v want %+v", i, got[i], entries[i])
			}
		}
		// Any strict prefix of the page must decode to an error or fewer
		// whole entries — never panic, never a partial final entry.
		if cut > 0 && len(page) > 0 {
			prefix := page[:cut%len(page)]
			if part, err := decodeScanEntries(prefix); err == nil && len(part) >= len(entries) {
				t.Fatalf("truncated page decoded %d entries", len(part))
			}
		}
	})
}
