// Package gateway is the HTTP/JSON front door over a sharded memkv
// cluster: the paper's redundancy machinery — hedged reads, quorum
// reads, CAS, prefix watches — behind plain HTTP, with the SLO
// controller steering each request's traffic class. A hedged read runs
// the controller's view of its class, which carries the controller's
// load governor; the gateway adds no strategy or governor of its own.
//
// The surface (statuses are the contract the tests pin):
//
//	GET    /kv/{key}      200 value bytes · 404 not_found · 503 quorum_unreachable
//	PUT    /kv/{key}      200 {"version":v} · 409 cas_conflict (with X-Expect-Version)
//	GET    /scan          200 {"entries":[…],"more":b}
//	GET    /watch         SSE stream of put/expire events
//	GET    /stats         200 aggregate counters + ring topology
//	GET    /slo           200 controller targets, operating points, move counts
//
// Per-request headers:
//
//	X-SLO-Class:      traffic class: labels the call and applies the
//	                  controller's live operating point for that class.
//	X-Read-Quorum:    explicit read quorum (>= 1); implies a quorum read.
//	X-Consistency:    "primary" (default; hedged read) or "quorum" (the
//	                  client's default read quorum, whatever the class).
//	X-Expect-Version: on PUT, compare-and-swap against this version
//	                  (0 = create only).
//
// Malformed headers and parameters are 400 with a JSON body
// {"error":"bad_request","detail":…}; every non-2xx response carries
// {"error":code,"detail":…}.
//
// Every GET 200 carries Content-Type: application/octet-stream. A plain
// GET whose value is non-empty and already sniffs as that type under
// http.DetectContentType — almost any binary value — is answered by
// writing the value alone: Write implies the 200, and net/http sets the
// Content-Type from the same sniff. The header map is left alone because
// asking for it costs a reply 4 allocations: the map's first entry, and
// net/http's Header.Clone of the map at WriteHeader. Any other value
// (empty, text, HTML, a font signature), HEAD, a quorum read, which sets
// X-Version anyway, and a writer that is not an http.Flusher (a
// hand-made one may learn its status only from WriteHeader) set the
// header explicitly. What a reply still costs is net/http's own request
// objects (about 14 allocations) and, on PUT, the explicit
// application/json header (4): a {"version":N} reply sniffs as text. The
// request context's Done channel is made only by a read or write that
// outlives the engine's first millisecond, from which on it watches the
// context. Over mux clients that holds for a read the governor or the
// SLO controller clamped to a single copy too: it is a started request
// in a call frame like any other, not a call blocking under the context.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/memkv"
	"redundancy/internal/slo"
)

// Config wires a Gateway. Client is required; everything else degrades
// gracefully when absent (no controller: classes only label metrics; no
// counters: /stats reports topology only).
type Config struct {
	// Client is the sharded store the gateway fronts.
	Client *memkv.ShardedClient
	// Controller, when set, supplies per-class strategies and backs the
	// /slo endpoint. Its Config.Governor, if any, governs those
	// strategies and adds a governor section to /stats.
	Controller *slo.Controller
	// Counters, when set, backs /stats. Install the same instance as
	// the client's ShardedConfig.Observer (and the controller's
	// Config.Counters) so all three see the same traffic.
	Counters *core.Counters
}

// maxValueBytes caps a PUT body.
const maxValueBytes = 1 << 20

// Gateway is the HTTP handler. Create with New; it is an http.Handler.
type Gateway struct {
	client *memkv.ShardedClient
	ctl    *slo.Controller
	ctr    *core.Counters
	mux    *http.ServeMux
}

// New builds a Gateway over cfg.Client.
func New(cfg Config) *Gateway {
	if cfg.Client == nil {
		panic("gateway: Config.Client is required")
	}
	g := &Gateway{
		client: cfg.Client,
		ctl:    cfg.Controller,
		ctr:    cfg.Counters,
	}
	m := http.NewServeMux()
	m.HandleFunc("GET /kv/{key...}", func(w http.ResponseWriter, r *http.Request) { g.handleGet(w, r, r.PathValue("key")) })
	m.HandleFunc("PUT /kv/{key...}", func(w http.ResponseWriter, r *http.Request) { g.handlePut(w, r, r.PathValue("key")) })
	m.HandleFunc("GET /scan", g.handleScan)
	m.HandleFunc("GET /watch", g.handleWatch)
	m.HandleFunc("GET /stats", g.handleStats)
	m.HandleFunc("GET /slo", g.handleSLO)
	g.mux = m
	return g
}

// ServeHTTP implements http.Handler. The two data-path routes are
// recognised here and skip the ServeMux, whose wildcard matching
// allocates five times per request; anything it would treat differently
// from a plain GET or PUT of /kv/<key> — another method, an escaped
// path, a path it would clean and redirect — still goes through it.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if key, ok := kvKey(r.URL); ok {
		switch r.Method {
		case http.MethodGet:
			g.handleGet(w, r, key)
			return
		case http.MethodPut:
			g.handlePut(w, r, key)
			return
		}
	}
	g.mux.ServeHTTP(w, r)
}

// kvKey returns the {key...} the ServeMux would extract from a
// /kv/{key...} path, for the paths it serves as they stand: no escapes
// that change segmentation (RawPath set) and nothing path cleaning
// rewrites ("//", "/./", "/../", a trailing "/." or "/..").
func kvKey(u *url.URL) (string, bool) {
	p := u.Path
	if u.RawPath != "" || !strings.HasPrefix(p, "/kv/") || strings.Contains(p, "//") || strings.Contains(p, "/.") {
		return "", false
	}
	return p[len("/kv/"):], true
}

// Reply content types, assigned into the header map as shared slices:
// Header.Set allocates a one-element slice per reply.
var (
	contentTypeJSON  = []string{"application/json"}
	contentTypeBytes = []string{"application/octet-stream"}
)

// errBody is every non-2xx response's JSON shape.
type errBody struct {
	Error  string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, detail string) {
	writeJSON(w, status, errBody{Error: code, Detail: detail})
}

// writeStoreErr maps a store error onto the documented status codes.
func writeStoreErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, memkv.ErrNotFound):
		writeErr(w, http.StatusNotFound, "not_found", err.Error())
	case errors.Is(err, memkv.ErrCASConflict):
		writeErr(w, http.StatusConflict, "cas_conflict", err.Error())
	case errors.Is(err, core.ErrQuorumUnreachable), errors.Is(err, core.ErrNoReplicas):
		writeErr(w, http.StatusServiceUnavailable, "quorum_unreachable", err.Error())
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// readPlan resolves the consistency headers into either a hedged
// primary read or a quorum read (X-Read-Quorum, or the client's write
// quorum for X-Consistency: quorum), plus the call options for the
// class, appended to opts: the caller's array, so that a GET makes no
// allocation for them.
func (g *Gateway) readPlan(r *http.Request, opts []core.CallOption) (quorumRead bool, quorum int, _ []core.CallOption, err error) {
	// The canonical spelling of X-SLO-Class: Get canonicalises its
	// argument first, and allocates to do it when it is not already.
	class := r.Header.Get("X-Slo-Class")
	cons := strings.ToLower(r.Header.Get("X-Consistency"))
	switch cons {
	case "", "primary", "quorum":
	default:
		return false, 0, nil, fmt.Errorf("X-Consistency must be primary or quorum, got %q", cons)
	}
	if qh := r.Header.Get("X-Read-Quorum"); qh != "" {
		q, perr := strconv.Atoi(qh)
		if perr != nil || q < 1 {
			return false, 0, nil, fmt.Errorf("X-Read-Quorum must be a positive integer, got %q", qh)
		}
		if cons == "primary" {
			return false, 0, nil, errors.New("X-Read-Quorum conflicts with X-Consistency: primary")
		}
		return true, q, nil, nil
	}
	if cons == "quorum" {
		return true, g.client.WriteQuorum(), nil, nil
	}
	if class != "" {
		opts = append(opts, core.WithLabel(class))
	}
	if g.ctl != nil {
		// Unlabeled traffic rides the controller's default class, so the
		// control loop (and its governor) steers every primary read even
		// when the backing client was built with a fixed ReadStrategy.
		opts = append(opts, core.WithStrategyOverride(g.ctl.Class(class)))
	}
	return false, 0, opts, nil
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request, key string) {
	if err := memkv.ValidateKey(key); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var optBuf [2]core.CallOption
	quorumRead, q, opts, err := g.readPlan(r, optBuf[:0])
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var val []byte
	if quorumRead {
		var res core.Result[memkv.Versioned]
		res, err = g.client.GetResult(r.Context(), key, core.WithQuorum(q))
		if err == nil {
			val = res.Value.Value
			w.Header().Set("X-Version", strconv.FormatUint(res.Value.Version, 10))
		}
	} else {
		val, err = g.client.Get(r.Context(), key, opts...)
	}
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	if quorumRead || !sniffedAsBytes(w, r, val) {
		w.Header()["Content-Type"] = contentTypeBytes
		w.WriteHeader(http.StatusOK)
	}
	_, _ = w.Write(val)
	// Written out and finished with: the next read lands in these bytes.
	memkv.Release(val)
}

// sniffedAsBytes reports whether a GET 200 of val may be left to Write,
// which implies the 200 and sniffs the same application/octet-stream
// (package doc). HEAD writes no body to sniff, and a writer that is not
// an http.Flusher — net/http's and httptest.ResponseRecorder are — may be
// a hand-made one that learns its status only from WriteHeader.
func sniffedAsBytes(w http.ResponseWriter, r *http.Request, val []byte) bool {
	_, streams := w.(http.Flusher)
	return streams && r.Method == http.MethodGet && len(val) > 0 && http.DetectContentType(val) == contentTypeBytes[0]
}

func (g *Gateway) handlePut(w http.ResponseWriter, r *http.Request, key string) {
	if err := memkv.ValidateKey(key); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var ttl time.Duration
	if r.URL.RawQuery != "" { // Query() builds a map per call
		if s := r.URL.Query().Get("ttl"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil || d < 0 {
				writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("invalid ttl %q", s))
				return
			}
			ttl = d
		}
	}
	expect, hasExpect := uint64(0), false
	if eh := r.Header.Get("X-Expect-Version"); eh != "" {
		v, err := strconv.ParseUint(eh, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("X-Expect-Version must be an unsigned integer, got %q", eh))
			return
		}
		expect, hasExpect = v, true
	}
	body, err := g.readBody(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	var version uint64
	if hasExpect {
		version, err = g.client.CAS(r.Context(), key, body, ttl, expect)
	} else {
		version, err = g.client.PutVersioned(r.Context(), key, body, ttl)
	}
	// Either write borrows the body only until it returns, whatever it
	// returns: the next PUT is read into the same bytes.
	memkv.Release(body)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	writeVersion(w, version)
}

// readBody reads a PUT's value, which handlePut releases once it is
// written. A declared length over the limit is refused on the header's
// word, with nothing read; one within it is read into a slice of exactly
// that size from the pool reads land in (memkv.Take); a chunked body goes
// through MaxBytesReader and ReadAll, which grows as it reads and is what
// rejects one over the limit.
func (g *Gateway) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxValueBytes {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", r.ContentLength, maxValueBytes)
	}
	if r.ContentLength < 0 {
		return io.ReadAll(http.MaxBytesReader(w, r.Body, maxValueBytes))
	}
	body := memkv.Take(int(r.ContentLength))
	if _, err := io.ReadFull(r.Body, body); err != nil {
		memkv.Release(body)
		return nil, err
	}
	// Read to its declared end, and said so: net/http drains a body its
	// handler left open before it replies (an io.LimitedReader per
	// request, to learn there is nothing left) and skips one that was
	// closed at EOF. The connection stays reusable either way.
	_ = r.Body.Close()
	return body, nil
}

// versionBufs holds writeVersion's scratch: a local array would escape
// through the ResponseWriter interface and be allocated per reply.
var versionBufs = sync.Pool{New: func() any { return new([40]byte) }}

// writeVersion writes a successful PUT's reply, {"version":N} and a
// newline — the bytes json.Encoder produces for that object, appended
// by hand because the encoder reflects over a map to get there.
func writeVersion(w http.ResponseWriter, version uint64) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(http.StatusOK)
	buf := versionBufs.Get().(*[40]byte) // the 12 fixed bytes and up to 20 digits
	b := append(buf[:0], `{"version":`...)
	b = strconv.AppendUint(b, version, 10)
	_, _ = w.Write(append(b, '}', '\n'))
	versionBufs.Put(buf)
}

// scanEntryJSON is one /scan result row; Value is base64 per Go's
// []byte JSON convention.
type scanEntryJSON struct {
	Key     string `json:"key"`
	Value   []byte `json:"value"`
	Version uint64 `json:"version"`
	TTLSecs uint32 `json:"ttl_secs,omitempty"`
}

func (g *Gateway) handleScan(w http.ResponseWriter, r *http.Request) {
	after := r.URL.Query().Get("after")
	limit := 100
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 4096 {
			writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("limit must be in [1, 4096], got %q", s))
			return
		}
		limit = n
	}
	entries, more, err := g.client.ScanMerged(r.Context(), after, limit)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	out := struct {
		Entries []scanEntryJSON `json:"entries"`
		More    bool            `json:"more"`
	}{Entries: make([]scanEntryJSON, 0, len(entries)), More: more}
	for _, e := range entries {
		out.Entries = append(out.Entries, scanEntryJSON{Key: e.Key, Value: e.Value, Version: e.Version, TTLSecs: e.TTLSecs})
	}
	writeJSON(w, http.StatusOK, out)
}

// watchEventJSON is one SSE data payload.
type watchEventJSON struct {
	Key     string `json:"key"`
	Value   []byte `json:"value,omitempty"`
	Version uint64 `json:"version"`
}

func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	prefix := r.URL.Query().Get("prefix")
	buf := 0
	if s := r.URL.Query().Get("buf"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > 1<<16 {
			writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("buf must be in [1, 65536], got %q", s))
			return
		}
		buf = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "internal", "response writer does not support streaming")
		return
	}
	pw, err := g.client.WatchPrefix(r.Context(), prefix, buf)
	if err != nil {
		writeStoreErr(w, err)
		return
	}
	defer pw.Close()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			// Client went away: Close (deferred) tears down every shard
			// subscription; no goroutine outlives the request.
			return
		case ev, ok := <-pw.Events():
			if !ok {
				return
			}
			data, _ := json.Marshal(watchEventJSON{Key: ev.Key, Value: ev.Value, Version: ev.Version})
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
			fl.Flush()
		}
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	type latencyJSON struct {
		P50Ms float64 `json:"p50_ms"`
		P90Ms float64 `json:"p90_ms"`
		P99Ms float64 `json:"p99_ms"`
	}
	type labelJSON struct {
		Label       string  `json:"label"`
		Ops         int64   `json:"ops"`
		Failures    int64   `json:"failures"`
		CopiesPerOp float64 `json:"copies_per_op"`
	}
	type govJSON struct {
		Utilization float64 `json:"utilization"`
		Gated       bool    `json:"gated"`
		Flips       int64   `json:"flips"`
	}
	out := struct {
		Shards      []string         `json:"shards"`
		Replication int              `json:"replication"`
		WriteQuorum int              `json:"write_quorum"`
		Ops         int64            `json:"ops"`
		Failures    int64            `json:"failures"`
		CopiesPerOp float64          `json:"copies_per_op"`
		Cancelled   int64            `json:"cancelled_copies"`
		Dropped     int64            `json:"dropped_copies"`
		Latency     *latencyJSON     `json:"latency,omitempty"`
		Wins        map[string]int64 `json:"wins,omitempty"`
		Labels      []labelJSON      `json:"labels,omitempty"`
		Governor    *govJSON         `json:"governor,omitempty"`
	}{
		Shards:      g.client.ShardAddrs(),
		Replication: g.client.Replication(),
		WriteQuorum: g.client.WriteQuorum(),
	}
	// Beside the losers withdrawn before they answered, the ones whose
	// answer arrived after the read was decided and was skipped undecoded.
	for _, m := range g.client.RingStats().Members {
		out.Dropped += m.Dropped
	}
	if g.ctr != nil {
		out.Ops = g.ctr.Ops()
		out.Failures = g.ctr.Failures()
		out.CopiesPerOp = g.ctr.CopiesPerOp()
		out.Cancelled = g.ctr.CancelledCopies()
		out.Wins = g.ctr.Wins()
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		if p50, ok := g.ctr.LatencyQuantile(0.50); ok {
			p90, _ := g.ctr.LatencyQuantile(0.90)
			p99, _ := g.ctr.LatencyQuantile(0.99)
			out.Latency = &latencyJSON{P50Ms: ms(p50), P90Ms: ms(p90), P99Ms: ms(p99)}
		}
		for _, ls := range g.ctr.Labels() {
			out.Labels = append(out.Labels, labelJSON{Label: ls.Label, Ops: ls.Ops, Failures: ls.Failures, CopiesPerOp: ls.CopiesPerOp})
		}
	}
	if g.ctl != nil && g.ctl.Governor() != nil {
		gs := g.ctl.Governor().Stats()
		out.Governor = &govJSON{Utilization: gs.Utilization, Gated: gs.Gated, Flips: gs.Flips}
	}
	writeJSON(w, http.StatusOK, out)
}

func (g *Gateway) handleSLO(w http.ResponseWriter, r *http.Request) {
	type classJSON struct {
		Class             string  `json:"class"`
		TargetP99Ms       float64 `json:"target_p99_ms"`
		MaxExtraLoad      float64 `json:"max_extra_load"`
		Fanout            int     `json:"fanout"`
		Quantile          float64 `json:"quantile"`
		ExpectedExtraLoad float64 `json:"expected_extra_load"`
		WindowP99Ms       float64 `json:"window_p99_ms"`
		WindowExtraLoad   float64 `json:"window_extra_load"`
		LastReason        string  `json:"last_reason"`
		Holds             int64   `json:"holds"`
		Tightens          int64   `json:"tightens"`
		Relaxes           int64   `json:"relaxes"`
		Clamps            int64   `json:"clamps"`
		Rejects           int64   `json:"rejects"`
	}
	out := struct {
		Enabled bool        `json:"enabled"`
		Classes []classJSON `json:"classes"`
	}{Enabled: g.ctl != nil, Classes: []classJSON{}}
	if g.ctl != nil {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		for _, cs := range g.ctl.Stats() {
			out.Classes = append(out.Classes, classJSON{
				Class:             cs.Class,
				TargetP99Ms:       ms(cs.Target.P99),
				MaxExtraLoad:      cs.Target.MaxExtraLoad,
				Fanout:            cs.Config.Fanout,
				Quantile:          cs.Config.Quantile,
				ExpectedExtraLoad: cs.ExpectedExtraLoad,
				WindowP99Ms:       ms(cs.WindowP99),
				WindowExtraLoad:   cs.WindowExtraLoad,
				LastReason:        cs.LastReason,
				Holds:             cs.Holds,
				Tightens:          cs.Tightens,
				Relaxes:           cs.Relaxes,
				Clamps:            cs.Clamps,
				Rejects:           cs.Rejects,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}
