package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// These tests pin the replicated write (DoDurable on a
// NewReportingKeyedGroup group whose Starters refuse Cancel): a decided
// call withdraws nothing, every copy reports to the per-copy hook
// exactly once — before its caller returns, if the copy decides the
// call — and keeps its frame reference until it completes; the argument
// a copy can read after the caller returned is own's form, never the
// caller's memory; a blocking copy that detaches its context outlives
// its caller's cancellation; and the governor counts every copy while
// it is out. Run with -race -count=5.

// handStarter is a Starter over []byte arguments whose copies the test
// completes by hand. Cancel counts and refuses, as a write's does.
type handStarter struct {
	mu      sync.Mutex
	sinks   []Sink[int]
	slots   []int
	args    [][]byte
	cancels int
}

func (h *handStarter) Start(arg []byte, sink Sink[int], slot int) (Ticket, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sinks, h.slots, h.args = append(h.sinks, sink), append(h.slots, slot), append(h.args, arg)
	return Ticket{Ref: h}, true
}

func (h *handStarter) Cancel(Ticket) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cancels++
	return false
}

// complete finishes the i-th copy this starter started.
func (h *handStarter) complete(i, v int, err error) {
	h.mu.Lock()
	sink, slot := h.sinks[i], h.slots[i]
	h.mu.Unlock()
	sink.Complete(slot, v, err)
}

// copyLog is a per-copy hook that keeps what it is handed, the argument
// copied and its first byte's address noted.
type copyLog struct {
	mu    sync.Mutex
	dones []CopyDone[[]byte, int]
	seen  [][]byte
	first []*byte
}

func (l *copyLog) done(c CopyDone[[]byte, int]) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dones = append(l.dones, c)
	l.seen = append(l.seen, bytes.Clone(c.Arg))
	var p *byte
	if len(c.Arg) > 0 {
		p = &c.Arg[0]
	}
	l.first = append(l.first, p)
}

func (l *copyLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.dones)
}

// durableGroup is a reporting group over n hand-completed starters,
// with an own that counts its calls.
func durableGroup(n int) (*KeyedGroup[[]byte, int], []Handle[[]byte, int], []*handStarter, *copyLog, *int) {
	log := &copyLog{}
	owns := new(int)
	g := NewReportingKeyedGroup[[]byte, int](nil, func(b []byte) []byte { *owns++; return bytes.Clone(b) }, log.done)
	hs := make([]*handStarter, n)
	picked := make([]Handle[[]byte, int], n)
	for i := range hs {
		hs[i] = &handStarter{}
		picked[i] = g.AddStarter(string(rune('a'+i)), func(context.Context, []byte) (int, error) {
			panic("a started member's blocking form was run")
		}, hs[i])
	}
	return g, picked, hs, log, owns
}

// started waits until h has started n copies.
func (h *handStarter) started(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		got := len(h.sinks)
		h.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d copies started, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// doDurable runs the call on a goroutine of its own.
func doDurable(ctx context.Context, g *KeyedGroup[[]byte, int], arg []byte, picked []Handle[[]byte, int], q int, gov *Governor) chan error {
	done := make(chan error, 1)
	go func() { done <- g.DoDurable(ctx, arg, picked, q, gov) }()
	return done
}

// TestAsyncDurableCallWithdrawsNothing: a quorum-1 call over two copies
// returns on the first ack. The second copy, whose Starter refuses the
// withdrawal, pins the frame and counts in the governor; when it fails
// after the return, the hook sees it with the frame's own copy of the
// argument, not the caller's slice, which the caller has overwritten by
// then. The first copy's report came before the caller returned, with
// the caller's slice itself. Then the frame recycles with nothing of
// the call left in it, and a completion into it panics.
func TestAsyncDurableCallWithdrawsNothing(t *testing.T) {
	g, picked, hs, log, owns := durableGroup(2)
	value := []byte("original")
	gov := NewGovernor(100, 0)
	done := doDurable(context.Background(), g, value, picked, 1, gov)
	hs[0].started(t, 1)
	hs[1].started(t, 1)
	if n := gov.Stats().InFlight; n != 2 {
		t.Fatalf("governor counts %d copies in flight, want 2", n)
	}
	hs[0].complete(0, 7, nil)
	if err := <-done; err != nil {
		t.Fatalf("DoDurable = %v, want the first ack's success", err)
	}
	if log.len() != 1 || log.first[0] != &value[0] {
		t.Fatal("the deciding copy had not reported, with the caller's own slice, when the caller woke")
	}
	if *owns != 1 {
		t.Fatalf("Own ran %d times by the return, with a copy still out; want 1", *owns)
	}
	for i := range value {
		value[i] = '!'
	}
	fr := hs[1].sinks[0].(*callFrame[[]byte, int])
	if fr.refs.Load() != 1 {
		t.Fatalf("the straggler holds %d references, want 1", fr.refs.Load())
	}
	if n := gov.Stats().InFlight; n != 1 {
		t.Fatalf("governor counts %d copies in flight after the return, want the straggler's 1", n)
	}
	hs[1].complete(0, 0, errors.New("boom"))
	if log.len() != 2 || log.dones[1].Replica != "b" || log.dones[1].Err == nil {
		t.Fatalf("the straggler's failure reported as %+v", log.dones[1:])
	}
	if string(log.seen[1]) != "original" || log.first[1] == &value[0] {
		t.Errorf("the straggler's report carries %q, at the caller's slice: %v; want the frame's own \"original\"", log.seen[1], log.first[1] == &value[0])
	}
	if n := gov.Stats().InFlight; n != 0 || gov.Stats().Samples != 1 {
		t.Errorf("governor: %d in flight, %d samples; want 0 and the call's 1", n, gov.Stats().Samples)
	}
	if fr.refs.Load() != 0 || fr.arg != nil || fr.won.Load() != 0 || fr.errs != nil {
		t.Errorf("the recycled frame keeps its call: refs %d, arg %q, won %d, errs %v", fr.refs.Load(), fr.arg, fr.won.Load(), fr.errs)
	}
	defer func() {
		if recover() == nil {
			t.Error("a second completion of the straggler, into the recycled frame, did not panic")
		}
	}()
	fr.Complete(1, 0, nil)
}

// TestAsyncDurableReturns: the three early returns of a durable call.
// Quorum 0 returns once the copies are out. A copy that makes the quorum
// unreachable fails the call at once, its report made first. A caller
// whose context is already done gets its error — and the call's one
// copy is started, not run on the caller's goroutine under that
// context, so it still lands. Each time the copies out are owned, and
// all of them report.
func TestAsyncDurableReturns(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		copies  int
		q       int
		fail    bool // the first copy fails before the return
		wantErr error
	}{
		{"quorum 0", context.Background(), 2, 0, false, nil},
		{"quorum unreachable", context.Background(), 2, 2, true, ErrQuorumUnreachable},
		{"caller gone, one copy", cancelled, 1, 1, false, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, picked, hs, log, owns := durableGroup(tc.copies)
			done := doDurable(tc.ctx, g, []byte("v"), picked, tc.q, nil)
			if tc.fail {
				hs[0].started(t, 1)
				hs[0].complete(0, 0, errors.New("boom"))
			}
			err := <-done
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("DoDurable = %v, want %v", err, tc.wantErr)
			}
			if tc.fail && log.len() != 1 {
				t.Fatalf("%d reports at the return, want the failure's", log.len())
			}
			if *owns != 1 {
				t.Fatalf("Own ran %d times, want 1: copies are still out", *owns)
			}
			for i, h := range hs {
				if i == 0 && tc.fail {
					continue
				}
				h.started(t, 1)
				h.complete(0, i, nil)
			}
			if log.len() != tc.copies {
				t.Errorf("%d copies reported, want all %d", log.len(), tc.copies)
			}
		})
	}
}

// TestAsyncDurableReportsBeforeTheCallerWakes: the copy whose failure
// makes the quorum unreachable reports before the caller it decides
// returns — a writer told of a failed write finds its hint queued. The
// hook holds that report; while it does, the call must not return.
func TestAsyncDurableReportsBeforeTheCallerWakes(t *testing.T) {
	g, picked, hs, _, _ := durableGroup(2)
	gate := make(chan struct{})
	g.done = func(c CopyDone[[]byte, int]) {
		if c.Err != nil {
			<-gate
		}
	}
	done := doDurable(context.Background(), g, []byte("v"), picked, 2, nil)
	hs[0].started(t, 1)
	go hs[0].complete(0, 0, errors.New("boom"))
	select {
	case err := <-done:
		t.Fatalf("the call returned (%v) while its deciding failure was still reporting", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-done; !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("DoDurable = %v, want ErrQuorumUnreachable", err)
	}
	hs[1].started(t, 1)
	hs[1].complete(0, 1, nil)
}

// TestAsyncDurableBlockingCopyOutlivesItsCaller: a function replica's
// copy runs on a goroutine over the owned argument — made before the
// launch, since the goroutine reads it whenever it is scheduled — and,
// detaching its context as memkv's blocking put does, outlives its
// caller's cancellation.
func TestAsyncDurableBlockingCopyOutlivesItsCaller(t *testing.T) {
	log := &copyLog{}
	g := NewReportingKeyedGroup[[]byte, int](nil, func(b []byte) []byte { return bytes.Clone(b) }, log.done)
	letGo := make(chan struct{})
	type seen struct {
		arg    string
		first  *byte
		ctxErr error
	}
	saw := make(chan seen, 1)
	h := g.Add("a", func(ctx context.Context, arg []byte) (int, error) {
		ctx = context.WithoutCancel(ctx)
		<-letGo
		saw <- seen{string(arg), &arg[0], ctx.Err()}
		return 1, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	value := []byte("original")
	done := doDurable(ctx, g, value, []Handle[[]byte, int]{h}, 1, nil)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("DoDurable after its caller gave up: %v, want context.Canceled", err)
	}
	for i := range value {
		value[i] = '!'
	}
	close(letGo)
	got := <-saw
	if got.arg != "original" || got.first == &value[0] || got.ctxErr != nil {
		t.Errorf("the blocking copy ran over %q (caller's slice: %v) under a context ended with %v; want its own \"original\", not ended",
			got.arg, got.first == &value[0], got.ctxErr)
	}
	deadline := time.Now().Add(2 * time.Second)
	for log.len() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the blocking copy never reported")
		}
		time.Sleep(time.Millisecond)
	}
}
