package memkv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
)

// This file is the memkv framing layer (the docs and experiment tables
// call it the v2 wire): a fixed binary header plus key and value bytes,
// carrying a per-request u64 tag. Responses are identified by tag, not
// by position, so MuxClient multiplexes thousands of outstanding
// requests over a single TCP connection and the server interleaves
// delayed responses out of order.
//
// Frame layout (all integers big-endian):
//
//	op   u8   — operation / status code, always >= 0x80
//	tag  u64  — request identifier, echoed verbatim in the response
//	aux  u32  — op-specific: TTL seconds on set, flags on a value
//	klen u16  — key length (0 on responses), <= maxKeyLen
//	vlen u32  — value length, <= maxValueLen
//	key  [klen]byte
//	val  [vlen]byte
//
// Every op has the high bit set, so a connection whose first byte is
// ASCII is not speaking this protocol; see Server.serveConn. A set
// carries no flags (aux is the TTL); a value written over the wire has
// flags 0.
const (
	frameHeaderLen = 19

	// Request ops. opGetV is the one read (0x81, a version-blind read,
	// and 0x83, a delete, are answered "unknown op"). opPutV writes with
	// an explicit version that applies only if newer than stored
	// (last-writer-wins), opScan pages through a shard's keyspace with
	// versions — the anti-entropy stream.
	opSet  = 0x82
	opGetV = 0x84 // key
	opPutV = 0x85 // key, val = version payload (see verPayload)
	opScan = 0x86 // key = exclusive start cursor, aux = max entries
	// Conditional / streaming requests. opCAS writes only if the stored
	// version equals the expected one (0 = create if absent). opWatch
	// opens a long-lived prefix subscription: the request's tag becomes
	// the watch's identity, and the server pushes opEvent frames carrying
	// that tag until opUnwatch, a slow-consumer disconnect, or the
	// connection dies — the protocol's first server-initiated frames.
	opCAS     = 0x87 // key, aux = TTL seconds, val = version payload (version = expected, data = new value)
	opWatch   = 0x88 // key = prefix (may be empty), aux = event buffer size (0 = server default)
	opUnwatch = 0x89 // val = u64 tag of the watch to end
	opStats   = 0x8A // no key, no value: snapshot the server's counters

	// Response ops.
	opNotFound = 0xC2
	opStored   = 0xC3
	opErr      = 0xC5 // val = error message
	opValueV   = 0xC6 // aux = flags, val = version payload (remaining TTL rounded up)
	opStoredV  = 0xC7 // aux = 1 if the put applied, val = current version payload (no data)
	opScanResp = 0xC8 // aux = 1 if more pages remain, val = packed scan entries
	opCASResp  = 0xC9 // aux = 1 if the swap applied, val = current version payload (no data)
	opWatchOK  = 0xCA // aux = granted event buffer size
	// opEvent is a server-push frame: tag = the owning watch's tag, aux =
	// event type (EventPut/EventExpire), key = the mutated key, val =
	// version payload (version, remaining TTL, value bytes — empty for an
	// expiry).
	opEvent = 0xCB
	// opWatchEnd terminates a watch stream: tag = the watch's tag, aux =
	// a watchEnd* reason. Sent exactly once per established watch, after
	// its last opEvent.
	opWatchEnd  = 0xCC
	opUnwatched = 0xCD // ack for opUnwatch (by the opUnwatch request's own tag)
	opStatsResp = 0xCE // val = packed counters (see appendStat)
)

// opWatchEnd reasons.
const (
	// watchEndClosed: the client unwatched, or the server shut the
	// session down cleanly.
	watchEndClosed = 1
	// watchEndSlow: the watcher fell behind its event buffer (or the
	// session's write backlog) and was disconnected; events were lost.
	watchEndSlow = 2
)

// Frame decode errors. Truncated input surfaces as io.ErrUnexpectedEOF
// (or io.EOF at a frame boundary); these cover frames that violate the
// protocol's limits.
var (
	errFrameOp       = errors.New("memkv: frame op out of range")
	errFrameKeyLen   = errors.New("memkv: frame key too long")
	errFrameValueLen = errors.New("memkv: frame value too long")
)

// ErrNotFound is returned by a read when the key is absent: never
// written, or expired (TTL expiry is the only removal).
var ErrNotFound = errors.New("memkv: not found")

// ValidateKey is memkv's key rule, which the client checks before it
// sends a request: non-empty, at most maxKeyLen bytes, no whitespace.
func ValidateKey(key string) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("memkv: invalid key length %d", len(key))
	}
	if strings.ContainsAny(key, " \r\n\t") {
		return errors.New("memkv: key contains whitespace")
	}
	return nil
}

// ErrValueTooLarge is returned, before anything is sent, by a write
// whose value is longer than maxValueLen less a versioned payload's
// header: its frame would break the protocol's limit, and the server
// answers such a frame by closing the connection every other request to
// it shares.
var ErrValueTooLarge = errors.New("memkv: value too large")

// validateValue is the client-side check of a write's value length n.
func validateValue(n int) error {
	if limit := maxValueLen - verPayloadHeader; n > limit {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrValueTooLarge, n, limit)
	}
	return nil
}

// frame is one decoded frame. A versioned payload read by readVerValue
// — an opPutV or opCAS request on the server, a versioned reply or
// watch event on the client — is decoded where it lies: its header
// lands in ver and ttl, and val holds only the data bytes.
type frame struct {
	op  byte
	tag uint64
	aux uint32
	key string
	val []byte
	ver uint64 // the payload's version (opCAS: the expected one)
	ttl uint32 // the payload's TTL seconds
	// short marks a versioned payload too short to hold its header: the
	// request is answered with opErr, the reply is errVerPayload.
	short bool
}

// appendFrame appends f's encoding to dst and returns the extended
// slice — the writer-side primitive the mux clients and server batch
// through one coalesced buffer.
func appendFrame(dst []byte, f *frame) []byte {
	dst = appendFrameHead(dst, f.op, f.tag, f.aux, len(f.key), len(f.val))
	dst = append(dst, f.key...)
	return append(dst, f.val...)
}

// appendFrameHead appends the fixed header of a frame whose key and
// value the caller appends itself.
func appendFrameHead(dst []byte, op byte, tag uint64, aux uint32, klen, vlen int) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = op
	binary.BigEndian.PutUint64(hdr[1:9], tag)
	binary.BigEndian.PutUint32(hdr[9:13], aux)
	binary.BigEndian.PutUint16(hdr[13:15], uint16(klen))
	binary.BigEndian.PutUint32(hdr[15:19], uint32(vlen))
	return append(dst, hdr[:]...)
}

// appendVerFrame appends a whole frame whose value is a versioned
// payload (see verPayloadHeader), writing the payload's header and data
// straight into dst: the hot versioned frames — a started put, its
// reply, a versioned value, a watch event — are never assembled in a
// payload slice of their own first.
func appendVerFrame(dst []byte, op byte, tag uint64, aux uint32, key string, version uint64, ttlSecs uint32, data []byte) []byte {
	dst = appendFrameHead(dst, op, tag, aux, len(key), verPayloadHeader+len(data))
	dst = append(dst, key...)
	return appendVerPayload(dst, version, ttlSecs, data)
}

// readFrame reads and validates one frame from r into f. The key and
// value are the caller's own (see readFrameValue). A clean EOF at a
// frame boundary returns io.EOF; a torn frame returns
// io.ErrUnexpectedEOF; limit violations return the errFrame errors
// before any variable-length payload is read.
func readFrame(r *bufio.Reader, f *frame) error {
	vlen, err := readFrameHead(r, f)
	if err != nil {
		return err
	}
	return readFrameValue(r, f, vlen)
}

// readFrameHead reads and validates a frame's header and key into f and
// returns the length of the value that follows, leaving f.val nil: the
// caller either reads the value with readFrameValue or, when nobody
// wants it, Discards vlen bytes.
func readFrameHead(r *bufio.Reader, f *frame) (vlen int, err error) {
	kb, vlen, err := readFrameHeadRaw(r, f)
	if err != nil {
		return 0, err
	}
	if len(kb) > 0 {
		f.key = string(kb)
		r.Discard(len(kb))
	}
	return vlen, nil
}

// readFrameHeadRaw reads and validates a frame's header into f and
// returns its key where it lies: kb aliases the reader's buffered
// window and is still unread — the caller uses it (a map lookup, a
// string conversion) and then Discards len(kb) bytes, before any other
// read on r. f.key and f.val are left empty.
//
// The header and key are decoded in place (Peek/Discard) rather than
// copied out through io.ReadFull: both fit any bufio.Reader
// (frameHeaderLen + maxKeyLen < the 4096-byte minimum buffer), so a
// frame costs only the allocations that must outlive the call — and a
// request that only looks its key up costs none.
func readFrameHeadRaw(r *bufio.Reader, f *frame) (kb []byte, vlen int, err error) {
	hdr, err := r.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, err
	}
	f.op = hdr[0]
	f.tag = binary.BigEndian.Uint64(hdr[1:9])
	f.aux = binary.BigEndian.Uint32(hdr[9:13])
	klen := int(binary.BigEndian.Uint16(hdr[13:15]))
	vlen = int(binary.BigEndian.Uint32(hdr[15:19]))
	r.Discard(frameHeaderLen)
	if f.op < 0x80 {
		return nil, 0, errFrameOp
	}
	if klen > maxKeyLen {
		return nil, 0, errFrameKeyLen
	}
	if vlen > maxValueLen {
		return nil, 0, errFrameValueLen
	}
	f.key = ""
	f.val = nil
	if klen > 0 {
		kb, err = r.Peek(klen)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, err
		}
	}
	return kb, vlen, nil
}

// readFrameValue reads the vlen value bytes that follow a frame's head
// into f.val (nil for an empty value), which the caller owns. A stored
// value — opValueV, whose data is what every read returns — lands in a
// buffer from Take, so one its reader gave back (Release) is read into
// again; every other op's value is freshly made at its exact length. On
// the server that is a write's data only when the write is parked or too
// long for the reader's window (serveMux); the store keeps the slice
// unless it overwrites a value of the same length in place.
func readFrameValue(r *bufio.Reader, f *frame, vlen int) error {
	if vlen == 0 {
		return nil
	}
	if f.op == opValueV {
		f.val = Take(vlen)
	} else {
		f.val = make([]byte, vlen)
	}
	if _, err := io.ReadFull(r, f.val); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// frameErrorf encodes an opErr response for tag.
func appendErrFrame(dst []byte, tag uint64, format string, args ...any) []byte {
	f := frame{op: opErr, tag: tag, val: []byte(fmt.Sprintf(format, args...))}
	return appendFrame(dst, &f)
}

// Versioned value payload — the val bytes of opPutV requests and
// opValueV/opStoredV responses:
//
//	version u64 | ttl u32 (whole seconds, 0 = never) | data
//
// Carrying the TTL next to the version is what lets read repair and
// anti-entropy pushes preserve an expiring key's remaining lifetime
// instead of silently immortalizing it. A read's reply rounds the
// remaining TTL up (0 still means never); a quorum read, which
// re-applies it, takes a second off.
const verPayloadHeader = 12

var errVerPayload = errors.New("memkv: short versioned payload")

// appendVerPayload appends the versioned payload encoding to dst. A nil
// dst is sized for the whole payload at once.
func appendVerPayload(dst []byte, version uint64, ttlSecs uint32, data []byte) []byte {
	if dst == nil {
		dst = make([]byte, 0, verPayloadHeader+len(data))
	}
	var hdr [verPayloadHeader]byte
	binary.BigEndian.PutUint64(hdr[0:8], version)
	binary.BigEndian.PutUint32(hdr[8:12], ttlSecs)
	dst = append(dst, hdr[:]...)
	return append(dst, data...)
}

// readVerValue reads the vlen-byte versioned payload that follows a
// frame's head: the header is decoded where it lies into f.ver and
// f.ttl, and the data bytes read into f.val by readFrameValue. A payload
// too short for its header is marked f.short and read whole.
func readVerValue(r *bufio.Reader, f *frame, vlen int) error {
	if f.short = vlen < verPayloadHeader; !f.short {
		hdr, err := r.Peek(verPayloadHeader)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		f.ver = binary.BigEndian.Uint64(hdr[0:8])
		f.ttl = binary.BigEndian.Uint32(hdr[8:12])
		r.Discard(verPayloadHeader)
		vlen -= verPayloadHeader
	}
	return readFrameValue(r, f, vlen)
}

// decodeVerPayload splits a versioned payload. data aliases p.
func decodeVerPayload(p []byte) (version uint64, ttlSecs uint32, data []byte, err error) {
	if len(p) < verPayloadHeader {
		return 0, 0, nil, errVerPayload
	}
	return binary.BigEndian.Uint64(p[0:8]),
		binary.BigEndian.Uint32(p[8:12]),
		p[verPayloadHeader:], nil
}

// Scan entry packing — the val bytes of an opScanResp frame are a
// sequence of entries, each:
//
//	klen u16 | key | version u64 | flags u32 | ttl u32 | vlen u32 | value
//
// One frame carries a whole page, so the mux's one-response-per-tag
// demux discipline holds for scans too (no multi-frame streams to
// reassemble).
var errScanEntry = errors.New("memkv: malformed scan entry")

// appendScanEntry appends one packed entry to dst.
func appendScanEntry(dst []byte, e *ScanEntry) []byte {
	var hdr [2]byte
	binary.BigEndian.PutUint16(hdr[:], uint16(len(e.Key)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.Key...)
	var meta [16]byte
	binary.BigEndian.PutUint64(meta[0:8], e.Version)
	binary.BigEndian.PutUint32(meta[8:12], e.Flags)
	binary.BigEndian.PutUint32(meta[12:16], e.TTLSecs)
	dst = append(dst, meta[:]...)
	var vlen [4]byte
	binary.BigEndian.PutUint32(vlen[:], uint32(len(e.Value)))
	dst = append(dst, vlen[:]...)
	return append(dst, e.Value...)
}

// decodeScanEntries unpacks a full opScanResp payload. Entry values are
// freshly allocated (they must outlive the frame buffer).
func decodeScanEntries(p []byte) ([]ScanEntry, error) {
	var out []ScanEntry
	for len(p) > 0 {
		if len(p) < 2 {
			return nil, errScanEntry
		}
		klen := int(binary.BigEndian.Uint16(p[0:2]))
		p = p[2:]
		if len(p) < klen+20 || klen > maxKeyLen {
			return nil, errScanEntry
		}
		e := ScanEntry{Key: string(p[:klen])}
		p = p[klen:]
		e.Version = binary.BigEndian.Uint64(p[0:8])
		e.Flags = binary.BigEndian.Uint32(p[8:12])
		e.TTLSecs = binary.BigEndian.Uint32(p[12:16])
		vlen := int(binary.BigEndian.Uint32(p[16:20]))
		p = p[20:]
		if vlen > maxValueLen || len(p) < vlen {
			return nil, errScanEntry
		}
		e.Value = append([]byte(nil), p[:vlen]...)
		p = p[vlen:]
		out = append(out, e)
	}
	return out, nil
}

// Counter packing — the val bytes of an opStatsResp frame are a
// sequence of name/value pairs, each:
//
//	nlen u8 | name | value u64 (an int64, two's complement)
var errStats = errors.New("memkv: malformed stats payload")

// appendStat appends one packed counter to dst.
func appendStat(dst []byte, name string, v int64) []byte {
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	return binary.BigEndian.AppendUint64(dst, uint64(v))
}

// decodeStats unpacks a full opStatsResp payload.
func decodeStats(p []byte) (map[string]int64, error) {
	out := make(map[string]int64)
	for len(p) > 0 {
		nlen := int(p[0])
		if len(p) < 1+nlen+8 {
			return nil, errStats
		}
		out[string(p[1:1+nlen])] = int64(binary.BigEndian.Uint64(p[1+nlen:]))
		p = p[1+nlen+8:]
	}
	return out, nil
}

// wireConn is the writing half of a framed connection, the same at both
// ends: a MuxClient connection and a server session append frames to
// pending under mu and signal the flusher, a single writer goroutine
// that writes whatever accumulated while the previous write was on the
// wire — group commit, one syscall for many frames under load. done
// closes when the connection ends.
type wireConn struct {
	c       net.Conn
	mu      sync.Mutex
	pending []byte
	flushC  chan struct{}
	done    chan struct{}
}

func newWireConn(c net.Conn) wireConn {
	return wireConn{c: c, flushC: make(chan struct{}, 1), done: make(chan struct{})}
}

// signalFlush wakes the flusher if it is not already due to run: the
// second half of every enqueue.
func (w *wireConn) signalFlush() {
	select {
	case w.flushC <- struct{}{}:
	default:
	}
}

// flusher is the connection's single writer: each pass swaps out
// whatever frames accumulated while the previous write was on the wire
// and writes them with one syscall. It exits when done closes, or on a
// write error, which it hands to fail to end the connection.
func (w *wireConn) flusher(fail func(error)) {
	var scratch []byte
	for {
		select {
		case <-w.flushC:
		case <-w.done:
			return
		}
		for {
			w.mu.Lock()
			if len(w.pending) == 0 {
				w.mu.Unlock()
				break
			}
			buf := w.pending
			w.pending = scratch[:0]
			w.mu.Unlock()
			if _, err := w.c.Write(buf); err != nil {
				fail(err)
				return
			}
			scratch = buf
		}
	}
}
