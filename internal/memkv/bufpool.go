package memkv

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file is the one rule for who owns a value's bytes on the read
// side: the caller, always — and a caller that is finished with them may
// hand them back. There is one read on the wire, and MuxClient reads the
// value of every reply to it (GetV and Get, a started read's completion,
// so every ShardedClient read, Get and GetResult, quorum or not) into a buffer
// from Take, after decoding the version header where it lies. The slice
// a read returns is the caller's to keep, modify or drop, exactly as if
// it had been made for it. Release is the optional other end: a caller
// that has consumed the value (the gateway, once it has written the
// reply) gives the buffer to the next read instead of to the collector.
//
// The rule's second half: the stack releases what no caller receives.
// A redundant read's loser decoded after its call was decided goes back
// through the read group's per-copy hook, whose report of that copy
// carries it (ShardedClient's discardRead), a quorum read gives back the
// votes it does not return, and a blocking read withdrawn after its
// reply was claimed gives back that reply. No buffer a caller was handed
// is ever released on its behalf.
//
// Scan entries and watch events are not pooled: they are slices into
// larger payloads or values their holders keep, plain allocations, and
// releasing one is harmless but pointless.
//
// The store is the other owner, and it lends nothing: it keeps each
// value in an exact-length slice of its own — never a pooled buffer,
// whose capacity is its class's, up to twice the value — and overwrites
// that slice in place when a write of the same length arrives. So every
// reader copies the bytes out while it holds the shard's read lock: the
// server appends its reply frame there, and Store.Get, GetVersion, Scan
// and a put's watch event hand out copies.

// Pooled buffers are filed in power-of-two classes by capacity: class c
// holds buffers with 64<<c <= cap < 128<<c, from 64 B to 64 KiB. Smaller
// values cost less to make than to pool; larger ones are never pooled, so
// the pool pins nothing big.
const (
	minPooled   = 64
	maxPooled   = 64 << 10
	poolClasses = 11 // 64 B, 128 B, …, 64 KiB
	// poison is what a released buffer is filled with in a -race build.
	poison = 0xDB
)

var (
	// valuePools hold *[]byte boxes, each carrying one buffer of its class;
	// boxPool holds the same boxes empty. A bare []byte in a sync.Pool
	// allocates a slice header per Put: the boxes circulate between the two
	// instead, so a hit allocates nothing on either side.
	valuePools [poolClasses]sync.Pool
	boxPool    = sync.Pool{New: func() any { return new([]byte) }}
	// stocked[c] counts the buffers released into class c and not yet
	// taken back, and Take looks in the class only while it is positive: a
	// hit takes one off, and a miss — the buffers went to other Ps' private
	// slots or to a collection — sets it to 0, until the next Release.
	// Looking in an empty sync.Pool is the slow path of Get — every P's
	// list, then the victim cache, about 54 ns with 2 goroutines on 2 Ps
	// against 2.8 ns for the count's load — and a process whose callers
	// keep what they read would pay it on every read for nothing (without
	// a gate lib_get_k1 lost 9 pairs of 10 on cpu_us_per_op, +1.1 %). A
	// flag set by the first Release would stay set once the stack gives
	// back its losers, and every later read of a caller that keeps its
	// values would walk the empty pool again; the count closes the class
	// as soon as its buffers are gone.
	stocked [poolClasses]atomic.Int64
)

// poolClass files a length or capacity n, minPooled <= n <= maxPooled,
// under the largest class size that does not exceed it.
func poolClass(n int) int { return bits.Len(uint(n)) - 7 }

// Take returns a slice of exactly n bytes with unspecified contents, from
// a buffer some caller released if one of n's class is at hand and long
// enough, freshly made otherwise. A miss costs exactly make([]byte, n) —
// nothing is rounded up to a class size, so a caller that keeps what it
// reads pays what it paid before there was a pool — and a released buffer
// of any capacity serves later requests for up to that many bytes: a
// steady traffic of 1000-byte values hits as surely as one of 1 KiB. The
// price of that choice is that a buffer drawn for a longer value of the
// same class is too short; it is dropped and the request is a miss.
//
// The result is the caller's own. Release it when finished, or never.
func Take(n int) []byte {
	if n >= minPooled && n <= maxPooled {
		if c := poolClass(n); stocked[c].Load() > 0 {
			box, _ := valuePools[c].Get().(*[]byte)
			if box == nil {
				stocked[c].Store(0)
				return make([]byte, n)
			}
			stocked[c].Add(-1)
			b := *box
			*box = nil
			boxPool.Put(box)
			if cap(b) >= n {
				return b[:n]
			}
		}
	}
	return make([]byte, n)
}

// Release gives v's buffer to a later Take. It is optional — a value that
// is never released is ordinary garbage — and accepts any slice: one that
// Take did not make, nil, a sub-slice. Buffers outside the pooled range
// are left to the collector. After Release the caller must not read or
// write v, or any slice sharing its bytes: they belong to whoever takes
// them next. A -race build overwrites v first, so a use after release
// shows up as a wrong value instead of passing by luck.
func Release(v []byte) {
	c := cap(v)
	if c < minPooled || c > maxPooled {
		return
	}
	v = v[:c]
	if raceEnabled {
		for i := range v {
			v[i] = poison
		}
	}
	box := boxPool.Get().(*[]byte)
	*box = v
	class := poolClass(c)
	valuePools[class].Put(box)
	stocked[class].Add(1)
}
