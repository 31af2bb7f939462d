package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/memkv"
)

// Tracing records a span at each boundary the benchmark can reach from
// outside the program: the load generator's own view of an operation,
// the gateway's handler (an http.Handler wrapper), ShardedClient calls
// the benchmark makes itself, and every copy that reaches a shard (a
// memkv.Backend wrapper). Spans stay in memory until the run ends. A
// request's id is the id of its root span, and travels down through the
// context (and, across the HTTP hop, a request header).

type spanKind uint8

const (
	spanOp         spanKind = iota // load generator: request written → reply checked
	spanHandler                    // gateway: http.Handler entered → returned
	spanShardedGet                 // ShardedClient.Get called by the benchmark
	spanCopyGet                    // one read copy on one shard
	spanCopyPut                    // one write copy on one shard
)

var spanNames = [...]string{"loadgen.op", "gateway.handler", "sharded.get", "mux.copy", "mux.put_copy"}

type outcome uint8

const (
	outcomeOK outcome = iota
	outcomeCancelled
	outcomeNotFound
	outcomeError
)

var outcomeNames = [...]string{"ok", "cancelled", "not_found", "error"}

func outcomeOf(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, context.Canceled):
		return outcomeCancelled
	case errors.Is(err, memkv.ErrNotFound):
		return outcomeNotFound
	default:
		return outcomeError
	}
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	ID, Parent, Req uint32
	Start, End      int64
	Kind            spanKind
	Outcome         outcome
	Shard           int8 // shard index for a copy, -1 otherwise
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans from every goroutine of a traced run. One
// mutex is enough: a traced run is not the run that is timed, and what
// the lock costs is reported as loadgen.trace_overhead_pct.
type recorder struct {
	on       atomic.Bool
	epoch    time.Time
	nextID   atomic.Uint32
	inflight atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span: it returns the span's id and start time.
func (r *recorder) begin() (id uint32, start int64) {
	r.inflight.Add(1)
	return r.nextID.Add(1), int64(time.Since(r.epoch))
}

// end closes the span begun with s.ID and s.Start.
func (r *recorder) end(s span) {
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	r.inflight.Add(-1)
}

// quiesce waits until no span is open, so that the copies a finished
// call left running (cancelled losers, detached write copies) are all
// recorded. It reports false if some span is still open after the wait.
func (r *recorder) quiesce(wait time.Duration) bool {
	deadline := time.Now().Add(wait)
	for r.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// take returns the spans recorded so far and starts an empty list.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// traceRef is what a span's children need to know: the request they
// belong to and the span that caused them.
type traceRef struct{ req, parent uint32 }

type traceKey struct{}

func withTrace(ctx context.Context, ref traceRef) context.Context {
	return context.WithValue(ctx, traceKey{}, ref)
}

func traceFrom(ctx context.Context) traceRef {
	ref, _ := ctx.Value(traceKey{}).(traceRef)
	return ref
}

// tracedMux is the memkv.Backend seam: it embeds the real client, so
// every optional interface ShardedClient looks for (VersionedBackend,
// CASBackend, WatchableBackend) is still there, and overrides the five
// single-key calls to put a span around each.
type tracedMux struct {
	*memkv.MuxClient
	rec   *recorder
	shard int8
}

func (t *tracedMux) copySpan(ctx context.Context, kind spanKind) span {
	ref := traceFrom(ctx)
	id, start := t.rec.begin()
	return span{ID: id, Parent: ref.parent, Req: ref.req, Start: start, Kind: kind, Shard: t.shard}
}

func (t *tracedMux) finish(s span, err error) {
	s.Outcome = outcomeOf(err)
	t.rec.end(s)
}

func (t *tracedMux) Get(ctx context.Context, key string) ([]byte, error) {
	if !t.rec.on.Load() {
		return t.MuxClient.Get(ctx, key)
	}
	s := t.copySpan(ctx, spanCopyGet)
	v, err := t.MuxClient.Get(ctx, key)
	t.finish(s, err)
	return v, err
}

func (t *tracedMux) GetV(ctx context.Context, key string) ([]byte, uint64, uint32, error) {
	if !t.rec.on.Load() {
		return t.MuxClient.GetV(ctx, key)
	}
	s := t.copySpan(ctx, spanCopyGet)
	v, ver, ttl, err := t.MuxClient.GetV(ctx, key)
	t.finish(s, err)
	return v, ver, ttl, err
}

func (t *tracedMux) SetTTL(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	if !t.rec.on.Load() {
		return t.MuxClient.SetTTL(ctx, key, value, ttl)
	}
	s := t.copySpan(ctx, spanCopyPut)
	err := t.MuxClient.SetTTL(ctx, key, value, ttl)
	t.finish(s, err)
	return err
}

func (t *tracedMux) PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (uint64, bool, error) {
	if !t.rec.on.Load() {
		return t.MuxClient.PutV(ctx, key, value, ttl, version)
	}
	s := t.copySpan(ctx, spanCopyPut)
	cur, applied, err := t.MuxClient.PutV(ctx, key, value, ttl, version)
	t.finish(s, err)
	return cur, applied, err
}

func (t *tracedMux) CAS(ctx context.Context, key string, value []byte, ttl time.Duration, expect uint64) (uint64, bool, error) {
	if !t.rec.on.Load() {
		return t.MuxClient.CAS(ctx, key, value, ttl, expect)
	}
	s := t.copySpan(ctx, spanCopyPut)
	cur, applied, err := t.MuxClient.CAS(ctx, key, value, ttl, expect)
	t.finish(s, err)
	return cur, applied, err
}

// traceHandler is the http.Handler seam: a span around the gateway's
// ServeHTTP, tied to the load generator's request by the trace header.
func traceHandler(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		// Recording is switched on between windows, with no request in
		// flight, so every request that gets here carries the header.
		req64, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 32)
		req := uint32(req64)
		id, start := rec.begin()
		ctx := withTrace(r.Context(), traceRef{req: req, parent: id})
		next.ServeHTTP(w, r.WithContext(ctx))
		rec.end(span{ID: id, Parent: req, Req: req, Start: start, Kind: spanHandler, Shard: -1})
	})
}

// cover returns how much of [start, end) the child intervals cover
// together: the length of their union, clipped to the parent. A span's
// self time is its duration minus the cover of its children, so time
// when two children overlap is not subtracted twice, and a child that
// outlives its parent takes nothing from it past the parent's end.
func cover(start, end int64, children [][2]int64) int64 {
	slices.SortFunc(children, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	at := start // everything before at is already counted
	for _, c := range children {
		lo, hi := max(c[0], at), min(c[1], end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// windowTrace is what the spans of one traced window say about the
// layers, in the units the metrics are reported in.
type windowTrace struct {
	ops            int // root spans
	readCopies     int // read copies launched
	readCopiesOK   int // read copies that ran to a reply
	cancelled      int // copies of either kind that ended cancelled
	allCopies      int // read and write copies
	httpSelfUS     float64
	handlerUS      float64
	handlerSelfUS  float64 // handler minus the cover of its copies
	shardedGetUS   float64
	shardedSelfUS  float64
	copyP50US      float64
	copyP99US      float64
	hedgeFireLagUS float64
}

func usOf(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	slices.Sort(ns)
	return float64(ns[rank(len(ns), p)-1]) / 1e3
}

// analyze groups spans by request and derives the window's per-layer
// figures. hedgeDelay is the configured delay between a call's first and
// second copy (0 when the strategy launches both at once).
func analyze(spans []span, hedgeDelay time.Duration) windowTrace {
	slices.SortFunc(spans, func(a, b span) int {
		return cmp.Or(cmp.Compare(a.Req, b.Req), cmp.Compare(a.Start, b.Start))
	})
	var wt windowTrace
	var httpSelf, handler, handlerSelf, shGet, shSelf, copyOK, fireLag []int64
	var kids [][2]int64
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].Req == spans[i].Req {
			j++
		}
		group := spans[i:j]
		i = j

		var op, hd, sh *span
		kids = kids[:0]
		var firstRead, secondRead *span
		for k := range group {
			s := &group[k]
			switch s.Kind {
			case spanOp:
				op = s
			case spanHandler:
				hd = s
			case spanShardedGet:
				sh = s
			case spanCopyGet, spanCopyPut:
				wt.allCopies++
				if s.Outcome == outcomeCancelled {
					wt.cancelled++
				}
				kids = append(kids, [2]int64{s.Start, s.End})
				if s.Kind == spanCopyGet {
					wt.readCopies++
					if s.Outcome == outcomeOK {
						wt.readCopiesOK++
						copyOK = append(copyOK, s.dur())
					}
					// The group is in start order.
					if firstRead == nil {
						firstRead = s
					} else if secondRead == nil {
						secondRead = s
					}
				}
			}
		}
		if op != nil || sh != nil || hd != nil {
			wt.ops++
		}
		if op != nil && hd != nil {
			httpSelf = append(httpSelf, op.dur()-hd.dur())
		}
		if hd != nil {
			handler = append(handler, hd.dur())
			handlerSelf = append(handlerSelf, hd.dur()-cover(hd.Start, hd.End, kids))
		}
		if sh != nil {
			shGet = append(shGet, sh.dur())
			shSelf = append(shSelf, sh.dur()-cover(sh.Start, sh.End, kids))
		}
		if hedgeDelay > 0 && secondRead != nil {
			fireLag = append(fireLag, secondRead.Start-firstRead.Start-int64(hedgeDelay))
		}
	}
	wt.httpSelfUS = usOf(httpSelf, 0.5)
	wt.handlerUS = usOf(handler, 0.5)
	wt.handlerSelfUS = usOf(handlerSelf, 0.5)
	wt.shardedGetUS = usOf(shGet, 0.5)
	wt.shardedSelfUS = usOf(shSelf, 0.5)
	wt.copyP50US = usOf(copyOK, 0.5)
	wt.copyP99US = usOf(copyOK, 0.99)
	wt.hedgeFireLagUS = usOf(fireLag, 0.5)
	return wt
}

// maxFileSpans bounds the span file: a ten-second window at 50 000
// operations a second records millions of spans, and a file of all of
// them would take longer to write than the window took to run. The
// metrics use every span; the file keeps every k-th request whole.
const maxFileSpans = 30_000

// writeSpans writes the spans of every k-th request as JSON, with k
// chosen so the file holds at most about maxFileSpans spans.
func writeSpans(path, workload string, seed uint64, epoch time.Time, spans []span) (err error) {
	every := uint32(len(spans)/maxFileSpans + 1)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"epoch_unix_ns\":%d,\"every_nth_request\":%d,\"spans\":[", workload, seed, epoch.UnixNano(), every)
	first := true
	for i := range spans {
		s := &spans[i]
		if s.Req%every != 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"id\":%d,\"parent\":%d,\"req\":%d,\"start_ns\":%d,\"end_ns\":%d,\"outcome\":%q",
			spanNames[s.Kind], s.ID, s.Parent, s.Req, s.Start, s.End, outcomeNames[s.Outcome])
		if s.Shard >= 0 {
			fmt.Fprintf(w, ",\"shard\":%d", s.Shard)
		}
		w.WriteByte('}')
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
