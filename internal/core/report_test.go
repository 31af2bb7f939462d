package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	errRaceFailed  = errors.New("failed")
	errRaceTimeout = errors.New("timed out")
)

// raceStarter completes each copy from a timer of its own: after up to
// 100µs a success (offered to Drop first) or a failure, or, for a
// stalled copy, its own request timeout's error after 2ms. Cancel
// withdraws a copy whose completion has not claimed it yet.
type raceStarter struct {
	rep *reportRace
	mu  sync.Mutex
	seq uint64
	out map[uint64]bool
}

// reportRace is what TestAsyncEveryCopyReportsOnce counts, per call
// (the argument) and per success value.
type reportRace struct {
	starts, reports  []atomic.Int32 // by call
	completed, ended []atomic.Int32 // by success value: call*4 + replica + 1
	withdrawn        atomic.Int64
	cancelReports    atomic.Int64
	drops, timeouts  atomic.Int64
	carriedBadly     atomic.Int64
	pending          sync.WaitGroup
}

func (s *raceStarter) Start(arg int, sink Sink[int], slot int) (Ticket, bool) {
	s.mu.Lock()
	s.seq++
	id := s.seq
	s.out[id] = true
	s.mu.Unlock()
	r := s.rep
	r.starts[arg].Add(1)
	r.pending.Add(1)
	v := arg*4 + slot + 1
	kind := rand.N(10)
	d := time.Duration(rand.N(100)) * time.Microsecond
	if kind >= 7 {
		d = 2 * time.Millisecond
	}
	time.AfterFunc(d, func() {
		defer r.pending.Done()
		s.mu.Lock()
		live := s.out[id]
		delete(s.out, id)
		s.mu.Unlock()
		switch {
		case !live: // withdrawn
		case kind < 5:
			if sink.Drop(slot) {
				r.drops.Add(1)
				return
			}
			r.completed[v].Add(1)
			sink.Complete(slot, v, nil)
		case kind < 7:
			sink.Complete(slot, 0, errRaceFailed)
		default:
			r.timeouts.Add(1)
			sink.Complete(slot, 0, errRaceTimeout)
		}
	})
	return Ticket{Ref: s, ID: id}, true
}

func (s *raceStarter) Cancel(tk Ticket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.out[tk.ID] {
		return false
	}
	delete(s.out, tk.ID)
	s.rep.withdrawn.Add(1)
	return true
}

// TestAsyncEveryCopyReportsOnce: across 10 000 three-copy hedged reads
// over starters, from 16 callers at once — a quarter cancelled at a
// random instant, a quarter under a random deadline, copies that win,
// fail, time out, are dropped or are withdrawn — each launched copy
// reports to the group's per-copy hook exactly once, whatever goroutine
// settles it, with a consistent outcome: a value only for a success no
// caller received, every completed success returned or carried exactly
// once, and context.Canceled exactly for the copies withdrawn. Run with
// -race.
func TestAsyncEveryCopyReportsOnce(t *testing.T) {
	const calls, callers = 10_000, 16
	r := &reportRace{
		starts: make([]atomic.Int32, calls), reports: make([]atomic.Int32, calls),
		completed: make([]atomic.Int32, calls*4+4), ended: make([]atomic.Int32, calls*4+4),
	}
	g := NewReportingKeyedGroup[int, int](Fixed{Copies: 3, HedgeDelay: 50 * time.Microsecond}, nil, func(c CopyDone[int, int]) {
		r.reports[c.Arg].Add(1)
		if c.Value != 0 {
			if c.Err != nil || (c.Value-1)/4 != c.Arg {
				r.carriedBadly.Add(1)
			}
			r.ended[c.Value].Add(1)
		}
		if c.Err == context.Canceled {
			r.cancelReports.Add(1)
		}
	})
	for _, name := range []string{"a", "b", "c"} {
		g.AddStarter(name, func(context.Context, int) (int, error) {
			panic("a race starter's blocking form was run")
		}, &raceStarter{rep: r, out: map[uint64]bool{}})
	}
	var ctxEnded atomic.Int64
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < calls; i += callers {
				ctx, cancel := context.Background(), context.CancelFunc(func() {})
				switch i % 4 {
				case 0:
					ctx, cancel = context.WithCancel(ctx)
					time.AfterFunc(time.Duration(rand.N(3000))*time.Microsecond, cancel)
				case 1:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rand.N(3000))*time.Microsecond)
				}
				res, err := g.Do(ctx, i)
				cancel()
				switch {
				case err == nil:
					r.ended[res.Value].Add(1)
				case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
					ctxEnded.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	r.pending.Wait() // every straggler has completed, and so reported
	for i := range calls {
		if s, n := r.starts[i].Load(), r.reports[i].Load(); s != n || s == 0 {
			t.Fatalf("call %d launched %d copies and reported %d", i, s, n)
		}
	}
	for v := range r.completed {
		if c, e := r.completed[v].Load(), r.ended[v].Load(); c != e {
			t.Fatalf("success %d (call %d) completed %d times and ended %d times", v, (v-1)/4, c, e)
		}
	}
	if n := r.carriedBadly.Load(); n != 0 {
		t.Errorf("%d reports carried a value with an error or another call's", n)
	}
	if w, c := r.withdrawn.Load(), r.cancelReports.Load(); w != c || w == 0 {
		t.Errorf("%d copies withdrawn and %d reported cancelled, want the same, above 0", w, c)
	}
	if ctxEnded.Load() == 0 || r.timeouts.Load() == 0 {
		t.Errorf("%d calls ended by their context and %d copies timed out, want some of each", ctxEnded.Load(), r.timeouts.Load())
	}
	t.Logf("%d calls: %d ended by their context; %d copies withdrawn, %d dropped, %d timed out",
		calls, ctxEnded.Load(), r.withdrawn.Load(), r.drops.Load(), r.timeouts.Load())
}
