package memkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// These tests pin the mux's one completion rule for a blocking request:
// whoever claims its tag — the reader with the reply, the timeout
// queue's fire, or fail when the connection dies — completes its waiter
// exactly once, as it completes a started request's sink, and a caller
// that withdraws the request first gets nothing. Run with -race
// -count=5.

// waiterConn is a bare connection (no socket, no owner) with one
// blocking request registered under tag 1, and that request's waiter.
func waiterConn() (*muxConn, *muxWaiter) {
	cn := bareConn()
	w := &muxWaiter{ch: make(chan muxReply, 1)}
	cn.mu.Lock()
	cn.registerLocked(muxEntry{w: w}, 0)
	cn.mu.Unlock()
	return cn, w
}

// timeOut plays the timeout queue's fire on tag: the tag's deadline is
// queued as already passed and the fire runs on this goroutine. The
// deadline goes straight into the heap, the sole entry of a bare
// connection's queue, so that no timer fires it on a goroutine of its
// own.
func timeOut(cn *muxConn, tag uint64) {
	cn.mu.Lock()
	cn.timeouts.h = append(cn.timeouts.h, deadline[uint64]{e: tag})
	cn.mu.Unlock()
	cn.timeoutsDue()
}

// claimEverywhere plays every claimer on tag 1 in turn: the reader with
// a whole reply, the timeout queue's fire, and fail.
func claimEverywhere(cn *muxConn, reply []byte) {
	cn.readOne(bufio.NewReader(bytes.NewReader(reply)))
	timeOut(cn, 1)
	cn.fail(errors.New("connection closed by the test"))
}

// TestMuxBlockingWaiterCompletesOnce drives each claimer first against a
// blocking waiter on a bare connection, then every claimer after it: the
// waiter holds exactly the first one's completion. A value torn
// mid-read fails the connection, and the waiter hears that from the
// reader that claimed it, not from anyone else.
func TestMuxBlockingWaiterCompletesOnce(t *testing.T) {
	value := bytes.Repeat([]byte{'v'}, 100)
	reply := appendVerFrame(nil, opValueV, 1, 0, "", 9, 0, value)
	for _, tc := range []struct {
		name  string
		first func(*muxConn)
		check func(muxReply) bool
	}{
		{"reply", func(cn *muxConn) {
			if err := cn.readOne(bufio.NewReader(bytes.NewReader(reply))); err != nil {
				t.Errorf("readOne: %v", err)
			}
		}, func(r muxReply) bool {
			return r.err == nil && r.f.op == opValueV && r.f.ver == 9 && bytes.Equal(r.f.val, value)
		}},
		{"value torn mid-read", func(cn *muxConn) {
			if err := cn.readOne(bufio.NewReader(bytes.NewReader(reply[:len(reply)-1]))); err == nil {
				t.Error("a value one byte short was read without an error")
			}
		}, func(r muxReply) bool { return errors.Is(r.err, ErrMuxConnLost) }},
		{"timeout", func(cn *muxConn) { timeOut(cn, 1) },
			func(r muxReply) bool { return errors.Is(r.err, ErrMuxTimeout) }},
		{"connection lost", func(cn *muxConn) { cn.fail(errors.New("peer went away")) },
			func(r muxReply) bool { return errors.Is(r.err, ErrMuxConnLost) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cn, w := waiterConn()
			tc.first(cn)
			select {
			case r := <-w.ch:
				if !tc.check(r) {
					t.Errorf("completion (op %#x, version %d, %d bytes, err %v) is not this claimer's", r.f.op, r.f.ver, len(r.f.val), r.err)
				}
			default:
				t.Fatal("the waiter got no completion")
			}
			claimEverywhere(cn, reply)
			if n := len(w.ch); n != 0 {
				t.Errorf("the waiter got %d more completions after the first", n)
			}
		})
	}

	t.Run("withdrawn", func(t *testing.T) {
		cn, w := waiterConn()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := (&MuxClient{}).wait(ctx, cn, 1, w); err != context.Canceled {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
		claimEverywhere(cn, reply)
		if n := len(w.ch); n != 0 {
			t.Errorf("a withdrawn request got %d completions", n)
		}
	})

	// The caller's context ends after the reader claimed the tag but
	// before the value is read: wait takes the completion still owed to
	// the waiter before it pools it.
	t.Run("withdrawn after the claim", func(t *testing.T) {
		cn, w := waiterConn()
		e, _ := cn.claim(1)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		done := make(chan error, 1)
		go func() {
			_, err := (&MuxClient{}).wait(ctx, cn, 1, w)
			done <- err
		}()
		select {
		case err := <-done:
			t.Fatalf("wait returned %v with a completion still owed to its waiter", err)
		case <-time.After(20 * time.Millisecond):
		}
		e.complete(&frame{op: opNotFound, tag: 1})
		if err := <-done; err != context.Canceled {
			t.Fatalf("wait = %v, want context.Canceled", err)
		}
		if n := len(w.ch); n != 0 {
			t.Errorf("the waiter went back to the pool holding %d completions", n)
		}
	})
}
