package memkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
)

// These tests pin the reader's half of the settle/drop contract
// (core.Sink.Drop): a hit for a read that is already decided is skipped
// in the reader's window — completed once, as dropped — and the bytes
// after it still decode; anything but a hit is delivered as before.
// Run with -race -count=5.

// bareConn is a connection with no socket under it, for driving readOne
// over bytes a test wrote: sinks[i] waits on tag i+1, slot i.
func bareConn(sinks ...*readSink) *muxConn {
	cn := &muxConn{wireConn: wireConn{c: deadConn{}, done: make(chan struct{})}, waiters: make(map[uint64]muxEntry)}
	for i, s := range sinks {
		cn.waiters[uint64(i+1)] = muxEntry{sink: s, slot: i}
	}
	return cn
}

// TestMuxDroppedReplyLeavesStreamInStep reads one stream of replies in
// which the dropped values lie every awkward way in the reader's 64 KiB
// window — torn across a refill, longer than the window, empty — and
// requires the reply after each to decode correctly: a dropped value
// consumes exactly its own bytes.
func TestMuxDroppedReplyLeavesStreamInStep(t *testing.T) {
	fill := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }
	frames := []struct {
		op      byte
		val     []byte
		settled bool // the read this answers is already decided
	}{
		{opValueV, fill(60<<10, 'a'), false},
		{opValueV, fill(10<<10, 'b'), true}, // begins inside the first fill, ends in the second
		{opValueV, []byte("after the torn one"), false},
		{opValueV, fill(200<<10, 'c'), true}, // three windows long
		{opValueV, []byte("after the long one"), false},
		{opValueV, nil, true},                // nothing to skip but the version
		{opNotFound, nil, true},              // a miss is an outcome, not a value
		{opErr, []byte("boom"), true},        // so is a server error
		{opValueV, []byte("the end"), false}, // and the stream is still in step
	}
	var stream []byte
	for i, f := range frames {
		if f.op == opValueV {
			stream = appendVerFrame(stream, opValueV, uint64(i+1), 0, "", uint64(100+i), 0, f.val)
		} else {
			stream = appendFrame(stream, &frame{op: f.op, tag: uint64(i + 1), val: f.val})
		}
	}
	for _, src := range []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole reads", func(r io.Reader) io.Reader { return r }},
		{"half reads", iotest.HalfReader},
	} {
		t.Run(src.name, func(t *testing.T) {
			sinks := make([]*readSink, len(frames))
			for i, f := range frames {
				sinks[i] = newReadSink(1)
				sinks[i].settled.Store(f.settled)
			}
			cn := bareConn(sinks...)
			r := bufio.NewReaderSize(src.wrap(bytes.NewReader(stream)), 64<<10)
			for i := range frames {
				if err := cn.readOne(r); err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
			}
			if err := cn.readOne(r); err != io.EOF {
				t.Fatalf("after the last frame: %v, want a clean io.EOF", err)
			}
			for i, f := range frames {
				rs := sinks[i].results(i)
				if len(rs) != 1 {
					t.Fatalf("frame %d completed %d times, want once", i, len(rs))
				}
				switch got := rs[0]; {
				case f.settled && f.op == opValueV:
					if !got.dropped || got.val != nil || got.err != nil {
						t.Errorf("frame %d: %+v, want dropped with no value", i, got)
					}
				case f.op == opValueV:
					if got.dropped || got.err != nil || !bytes.Equal(got.val, f.val) || got.ver != uint64(100+i) {
						t.Errorf("frame %d: dropped %v, err %v, %d bytes at version %d; want its %d-byte value at %d", i, got.dropped, got.err, len(got.val), got.ver, len(f.val), 100+i)
					}
				case f.op == opNotFound:
					if got.dropped || !errors.Is(got.err, ErrNotFound) {
						t.Errorf("frame %d: %+v, want ErrNotFound delivered", i, got)
					}
				default:
					if got.dropped || got.err == nil || got.err.Error() != "memkv: server error: boom" {
						t.Errorf("frame %d: %+v, want the server's error delivered", i, got)
					}
				}
			}
			if len(cn.waiters) != 0 || cn.isDead() {
				t.Errorf("%d tags left, connection dead = %v", len(cn.waiters), cn.isDead())
			}
		})
	}
}

// TestMuxDroppedReplyTornMidValue: the stream ends inside a value being
// skipped. The copy is already complete — dropped, once — and the error
// is the connection's.
func TestMuxDroppedReplyTornMidValue(t *testing.T) {
	sink := newReadSink(2)
	sink.settled.Store(true)
	whole := appendVerFrame(nil, opValueV, 1, 0, "", 7, 0, bytes.Repeat([]byte{'v'}, 100<<10))
	cn := bareConn(sink)
	err := cn.readOne(bufio.NewReaderSize(bytes.NewReader(whole[:len(whole)-1]), 64<<10))
	if err == nil {
		t.Fatal("a value one byte short was skipped without an error")
	}
	if rs := sink.results(0); len(rs) != 1 || !rs[0].dropped {
		t.Errorf("completions %+v, want exactly one, dropped", rs)
	}
}

// TestMuxDroppedReplyOnLiveConnection: started reads whose sink is
// already settled, against a real server — a value longer than the
// reader's window among them — complete as dropped, a miss among them is
// still delivered, and the one connection carries on answering.
func TestMuxDroppedReplyOnLiveConnection(t *testing.T) {
	srv, cl := startMux(t)
	ctx := context.Background()
	big := bytes.Repeat([]byte("0123456789abcdef"), 200<<10/16)
	if err := cl.Set(ctx, "big", big); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, "small", []byte("small value")); err != nil {
		t.Fatal(err)
	}
	sink := newReadSink(8)
	sink.settled.Store(true)
	for slot, key := range []string{"big", "small", "absent", "big"} {
		if _, ok := cl.Start(key, sink, slot); !ok {
			t.Fatalf("Start(%s) declined on a live connection", key)
		}
	}
	for range 4 {
		sink.wait(t)
	}
	for slot, wantDropped := range []bool{true, true, false, true} {
		rs := sink.results(slot)
		if len(rs) != 1 || rs[0].dropped != wantDropped || rs[0].val != nil {
			t.Fatalf("slot %d: completions %+v, want one with dropped = %v and no value", slot, rs, wantDropped)
		}
		if !wantDropped && !errors.Is(rs[0].err, ErrNotFound) {
			t.Errorf("slot %d: err %v, want ErrNotFound", slot, rs[0].err)
		}
	}
	if got, err := cl.Get(ctx, "small"); err != nil || string(got) != "small value" {
		t.Errorf("Get(small) after the dropped replies = (%q, %v)", got, err)
	}
	if got, err := cl.Get(ctx, "big"); err != nil || !bytes.Equal(got, big) {
		t.Errorf("Get(big) after the dropped replies = (%d bytes, %v), want the %d stored", len(got), err, len(big))
	}
	if n := srv.AcceptedConns(); n != 1 {
		t.Errorf("the server accepted %d connections, want the one", n)
	}
	if n := pendingTags(cl); n != 0 {
		t.Errorf("%d tags still registered", n)
	}
}

// TestShardedGetSecondCopyAllocatesNothing: a two-copy read over live
// servers returns its key's value from many callers at once, its loser
// ends withdrawn, dropped or (rarely) decoded, and the whole process —
// servers included — allocates the returned value and next to nothing
// else: the second copy is free. (Measured 1.01 allocations per read;
// 1.3 to 1.45 when a loser's reply that beat its Cancel was decoded.)
func TestShardedGetSecondCopyAllocatesNothing(t *testing.T) {
	var handed atomic.Int64
	defer func(d func(Versioned)) { discardRead = d }(discardRead)
	discardRead = func(v Versioned) {
		handed.Add(1)
		Release(v.Value)
	}
	sc, _, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2, ReadStrategy: core.Fixed{Copies: 2}}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	ctx := context.Background()
	const nkeys, callers, calls = 64, 8, 4000
	keys, vals := make([]string, nkeys), make([][]byte, nkeys)
	for k := range keys {
		keys[k], vals[k] = fmt.Sprint("key-", k), []byte(fmt.Sprint("value-", k))
		if _, err := sc.PutVersioned(ctx, keys[k], vals[k], 0); err != nil {
			t.Fatal(err)
		}
	}
	storm := func(n int) {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					k := (c*n + i) % nkeys
					if v, err := sc.Get(ctx, keys[k]); err != nil || !bytes.Equal(v, vals[k]) {
						t.Errorf("Get(%s) = (%q, %v)", keys[k], v, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	storm(200) // frames, waiters, buffers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	storm(calls)
	runtime.ReadMemStats(&after)
	perGet := float64(after.Mallocs-before.Mallocs) / (callers * calls)

	// Every read has one loser: withdrawn, dropped, or decoded and handed
	// to the read group's discard hook — by its reader, which may still
	// be finishing the last stragglers.
	const reads = callers * (calls + 200)
	var cancelled, dropped int64
	for deadline := time.Now().Add(2 * time.Second); ; {
		cancelled, dropped = 0, 0
		for _, m := range sc.RingStats().Members {
			cancelled += m.Cancelled
			dropped += m.Dropped
		}
		if cancelled+dropped+handed.Load() >= reads || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if dropped == 0 || cancelled+dropped > reads {
		t.Errorf("%d reads: %d losers withdrawn, %d dropped; want some dropped and at most one loser a read", reads, cancelled, dropped)
	}
	decoded := reads - cancelled - dropped
	if handed.Load() != decoded {
		t.Errorf("%d losers decoded, %d handed back to the pool; want every one", decoded, handed.Load())
	}
	t.Logf("%d reads: %d losers withdrawn, %d dropped, %d decoded and handed back; %.3f allocations per read",
		reads, cancelled, dropped, decoded, perGet)
	if perGet > 1.1 && !coretest.Race() {
		t.Errorf("a two-copy Get allocates %.3f times across client and servers, want at most 1.1", perGet)
	}
	for _, m := range muxes {
		if n := pendingTags(m); n != 0 {
			t.Errorf("%s: %d tags still registered after every call returned", m.Addr(), n)
		}
	}
}
