package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redundancy/internal/core"
	"redundancy/internal/core/coretest"
	"redundancy/internal/memkv"
	"redundancy/internal/slo"
)

// fixture is a gateway over n live mux shards.
type fixture struct {
	ts      *httptest.Server
	sc      *memkv.ShardedClient
	ctl     *slo.Controller
	ctr     *core.Counters
	servers []*memkv.Server
}

func newFixture(t *testing.T, shards int) *fixture {
	t.Helper()
	return startFixture(t, shards, nil, nil)
}

// startFixture is newFixture with the controller given gov (may be nil)
// and shard i's server Delay hook set to delay(i) (delay may be nil).
func startFixture(t *testing.T, shards int, gov *core.Governor, delay func(i int) func() time.Duration) *fixture {
	t.Helper()
	f := &fixture{ctr: core.NewCounters()}
	var backends []memkv.Backend
	for i := 0; i < shards; i++ {
		srv := memkv.NewServer(nil)
		if delay != nil {
			// Set before Listen: connection handlers read Delay unsynchronized.
			srv.Delay = delay(i)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		t.Cleanup(func() { srv.Close() })
		backends = append(backends, memkv.NewMuxClient(addr.String(), 2*time.Second))
	}
	f.ctl = slo.New(slo.Target{P99: 50 * time.Millisecond, MaxExtraLoad: 0.5}, slo.Config{
		Counters:          f.ctr,
		Governor:          gov,
		MinWindowSamples:  10,
		DisableValidation: true,
	})
	f.sc = memkv.NewShardedClient(memkv.ShardedConfig{
		Replication: 2,
		Observer:    f.ctr,
	}, backends...)
	t.Cleanup(func() { f.sc.Close() })
	gw := New(Config{Client: f.sc, Controller: f.ctl, Counters: f.ctr})
	f.ts = httptest.NewServer(gw)
	t.Cleanup(f.ts.Close)
	return f
}

// do performs one request and returns status, headers, and body.
func (f *fixture) do(t *testing.T, method, path, body string, hdr map[string]string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, b
}

// errOf decodes the documented JSON error body and fails on any other
// shape.
func errOf(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error  string `json:"error"`
		Detail string `json:"detail"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Fatalf("response body is not the documented error JSON: %q (%v)", body, err)
	}
	return e.Error
}

func versionOf(t *testing.T, body []byte) uint64 {
	t.Helper()
	var v struct {
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(body, &v); err != nil || v.Version == 0 {
		t.Fatalf("response body is not a version JSON: %q (%v)", body, err)
	}
	return v.Version
}

// TestGetPutContract: the happy paths and the documented error statuses
// for GET and PUT, including the CAS protocol via X-Expect-Version.
func TestGetPutContract(t *testing.T) {
	f := newFixture(t, 3)

	st, _, body := f.do(t, "PUT", "/kv/alpha", "one", nil)
	if st != http.StatusOK {
		t.Fatalf("PUT = %d %s", st, body)
	}
	v1 := versionOf(t, body)

	st, hdr, body := f.do(t, "GET", "/kv/alpha", "", nil)
	if st != http.StatusOK || string(body) != "one" {
		t.Fatalf("GET = %d %q", st, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("GET content-type = %q", ct)
	}

	st, _, body = f.do(t, "GET", "/kv/nope", "", nil)
	if st != http.StatusNotFound || errOf(t, body) != "not_found" {
		t.Fatalf("GET missing = %d %s", st, body)
	}

	// Quorum read: value plus its version in X-Version.
	st, hdr, body = f.do(t, "GET", "/kv/alpha", "", map[string]string{"X-Consistency": "quorum"})
	if st != http.StatusOK || string(body) != "one" {
		t.Fatalf("quorum GET = %d %q", st, body)
	}
	if hdr.Get("X-Version") != fmt.Sprint(v1) {
		t.Fatalf("quorum GET X-Version = %q, want %d", hdr.Get("X-Version"), v1)
	}
	st, _, body = f.do(t, "GET", "/kv/nope", "", map[string]string{"X-Read-Quorum": "2"})
	if st != http.StatusNotFound || errOf(t, body) != "not_found" {
		t.Fatalf("quorum GET missing = %d %s", st, body)
	}

	// CAS: create-only on an existing key conflicts; the right expected
	// version applies and returns the new version.
	st, _, body = f.do(t, "PUT", "/kv/alpha", "clobber", map[string]string{"X-Expect-Version": "0"})
	if st != http.StatusConflict || errOf(t, body) != "cas_conflict" {
		t.Fatalf("CAS create over existing = %d %s", st, body)
	}
	st, _, body = f.do(t, "PUT", "/kv/alpha", "two", map[string]string{"X-Expect-Version": fmt.Sprint(v1)})
	if st != http.StatusOK {
		t.Fatalf("CAS apply = %d %s", st, body)
	}
	v2 := versionOf(t, body)
	if v2 <= v1 {
		t.Fatalf("CAS version %d not newer than %d", v2, v1)
	}
	st, _, body = f.do(t, "PUT", "/kv/alpha", "stale", map[string]string{"X-Expect-Version": fmt.Sprint(v1)})
	if st != http.StatusConflict || errOf(t, body) != "cas_conflict" {
		t.Fatalf("stale CAS = %d %s", st, body)
	}
	if st, _, body = f.do(t, "GET", "/kv/alpha", "", nil); string(body) != "two" {
		t.Fatalf("after CAS: GET = %d %q, want two", st, body)
	}

	// TTL is honored end to end.
	if st, _, body = f.do(t, "PUT", "/kv/ephemeral?ttl=1h", "x", nil); st != http.StatusOK {
		t.Fatalf("PUT ttl = %d %s", st, body)
	}
	if st, _, _ = f.do(t, "GET", "/kv/ephemeral", "", nil); st != http.StatusOK {
		t.Fatalf("GET ttl'd key = %d", st)
	}
}

// headerSpy counts the handler's calls of Header on a recorder.
type headerSpy struct {
	*httptest.ResponseRecorder
	calls int
}

func (s *headerSpy) Header() http.Header { s.calls++; return s.ResponseRecorder.Header() }

// benchShaped is a value laid out as the benchmark lays its values out:
// the key index little-endian, then filler.
func benchShaped(key uint64, n int) []byte {
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, key)
	for i := 8; i < n; i++ {
		v[i] = byte(i*131 + 7)
	}
	return v
}

// TestGetContentType: every GET 200 carries exactly one Content-Type,
// application/octet-stream, whatever the value's bytes — through a real
// net/http server and through a ResponseRecorder alike. A plain GET of a
// value that sniffs as bytes leaves it to Write's sniff and never asks
// for the header map; every other value, HEAD, a quorum read (which
// keeps its X-Version) and a writer that is not an http.Flusher set it
// explicitly.
func TestGetContentType(t *testing.T) {
	f := newFixture(t, 2)
	gw := New(Config{Client: f.sc, Controller: f.ctl, Counters: f.ctr})
	le256 := make([]byte, 8)
	binary.LittleEndian.PutUint64(le256, 256) // "\x00\x01\x00\x00": a TrueType signature
	cases := []struct {
		name    string
		val     []byte
		sniffed bool // the reply leaves the header map alone
	}{
		{"empty", nil, false},
		{"bench-shaped", benchShaped(7, 64), true},
		{"text", []byte("hello"), false},
		{"html", []byte("<html>x"), false},
		{"font-ttf-lookalike", le256, false},
		{"binary-6000", benchShaped(9, 6000), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := "/kv/ct-" + tc.name
			if st, _, body := f.do(t, "PUT", path, string(tc.val), nil); st != http.StatusOK {
				t.Fatalf("PUT = %d %s", st, body)
			}
			wantCT := []string{"application/octet-stream"}

			req, err := http.NewRequest("GET", f.ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := f.ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, tc.val) {
				t.Fatalf("socket GET = %d, %d bytes (%v), want 200 and the %d stored", resp.StatusCode, len(body), err, len(tc.val))
			}
			if ct := resp.Header["Content-Type"]; !slices.Equal(ct, wantCT) {
				t.Errorf("socket GET Content-Type %q, want %q", ct, wantCT)
			}
			if len(tc.val) > 2048 && resp.ContentLength != -1 {
				t.Errorf("socket GET of %d bytes declared Content-Length %d, want a chunked reply", len(tc.val), resp.ContentLength)
			}

			spy := &headerSpy{ResponseRecorder: httptest.NewRecorder()}
			gw.ServeHTTP(spy, httptest.NewRequest("GET", path, nil))
			if spy.Code != http.StatusOK || !bytes.Equal(spy.Body.Bytes(), tc.val) {
				t.Fatalf("recorded GET = %d, %d bytes, want 200 and the %d stored", spy.Code, spy.Body.Len(), len(tc.val))
			}
			if ct := spy.Result().Header["Content-Type"]; !slices.Equal(ct, wantCT) {
				t.Errorf("recorded GET Content-Type %q, want %q", ct, wantCT)
			}
			if sniffed := spy.calls == 0; sniffed != tc.sniffed {
				t.Errorf("GET left the header map alone = %v, want %v", sniffed, tc.sniffed)
			}
			// A writer that does not stream may take its status from
			// WriteHeader alone, so it is told both.
			nw := &nullWriter{h: make(http.Header)}
			gw.ServeHTTP(nw, httptest.NewRequest("GET", path, nil))
			if ct := nw.h["Content-Type"]; nw.status != http.StatusOK || !slices.Equal(ct, wantCT) {
				t.Errorf("GET into a non-streaming writer: status %d, Content-Type %q; want 200, %q", nw.status, ct, wantCT)
			}

			st, hdr, body := f.do(t, "HEAD", path, "", nil)
			if ct := hdr["Content-Type"]; st != http.StatusOK || len(body) != 0 || !slices.Equal(ct, wantCT) {
				t.Errorf("HEAD = %d, %d bytes, Content-Type %q; want 200, none, %q", st, len(body), ct, wantCT)
			}
			st, hdr, body = f.do(t, "GET", path, "", map[string]string{"X-Consistency": "quorum"})
			if st != http.StatusOK || !bytes.Equal(body, tc.val) || hdr.Get("X-Version") == "" {
				t.Errorf("quorum GET = %d, %d bytes, X-Version %q; want 200, the value, a version", st, len(body), hdr.Get("X-Version"))
			}
			if ct := hdr["Content-Type"]; !slices.Equal(ct, wantCT) {
				t.Errorf("quorum GET Content-Type %q, want %q", ct, wantCT)
			}
		})
	}
}

// TestMalformedRequests: every malformed header/parameter the contract
// documents is a 400 with error "bad_request" — never a 500, never a
// silent fallback.
func TestMalformedRequests(t *testing.T) {
	f := newFixture(t, 2)
	f.do(t, "PUT", "/kv/k", "v", nil)

	cases := []struct {
		name, method, path, body string
		hdr                      map[string]string
	}{
		{"quorum-not-int", "GET", "/kv/k", "", map[string]string{"X-Read-Quorum": "banana"}},
		{"quorum-negative", "GET", "/kv/k", "", map[string]string{"X-Read-Quorum": "-1"}},
		{"quorum-zero", "GET", "/kv/k", "", map[string]string{"X-Read-Quorum": "0"}},
		{"consistency-unknown", "GET", "/kv/k", "", map[string]string{"X-Consistency": "eventual"}},
		{"quorum-vs-primary", "GET", "/kv/k", "", map[string]string{"X-Consistency": "primary", "X-Read-Quorum": "2"}},
		{"get-key-whitespace", "GET", "/kv/a%20b", "", nil},
		{"put-key-whitespace", "PUT", "/kv/a%20b", "v", nil},
		{"expect-version-not-int", "PUT", "/kv/k", "v", map[string]string{"X-Expect-Version": "banana"}},
		{"expect-version-negative", "PUT", "/kv/k", "v", map[string]string{"X-Expect-Version": "-3"}},
		{"ttl-not-duration", "PUT", "/kv/k?ttl=banana", "v", nil},
		{"ttl-negative", "PUT", "/kv/k?ttl=-5s", "v", nil},
		{"scan-limit-not-int", "GET", "/scan?limit=banana", "", nil},
		{"scan-limit-zero", "GET", "/scan?limit=0", "", nil},
		{"scan-limit-huge", "GET", "/scan?limit=100000", "", nil},
		{"watch-buf-not-int", "GET", "/watch?buf=banana", "", nil},
		{"watch-buf-zero", "GET", "/watch?buf=0", "", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, _, body := f.do(t, tc.method, tc.path, tc.body, tc.hdr)
			if st != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", st, body)
			}
			if code := errOf(t, body); code != "bad_request" {
				t.Fatalf("error code = %q, want bad_request", code)
			}
		})
	}
}

// TestQuorumUnreachable: with every shard down, quorum reads and writes
// are 503 quorum_unreachable — not a hang, not a 500.
func TestQuorumUnreachable(t *testing.T) {
	f := newFixture(t, 2)
	f.do(t, "PUT", "/kv/k", "v", nil)
	for _, srv := range f.servers {
		srv.Close()
	}
	st, _, body := f.do(t, "GET", "/kv/k", "", map[string]string{"X-Consistency": "quorum"})
	if st != http.StatusServiceUnavailable || errOf(t, body) != "quorum_unreachable" {
		t.Fatalf("quorum GET with shards down = %d %s", st, body)
	}
	st, _, body = f.do(t, "PUT", "/kv/k", "v2", nil)
	if st != http.StatusServiceUnavailable || errOf(t, body) != "quorum_unreachable" {
		t.Fatalf("PUT with shards down = %d %s", st, body)
	}
}

// TestScanContract: /scan merges shards into one sorted, deduplicated,
// paginated keyspace.
func TestScanContract(t *testing.T) {
	f := newFixture(t, 3)
	const n = 10
	for i := 0; i < n; i++ {
		if st, _, body := f.do(t, "PUT", fmt.Sprintf("/kv/scan/%02d", i), fmt.Sprintf("v%d", i), nil); st != http.StatusOK {
			t.Fatalf("PUT %d = %d %s", i, st, body)
		}
	}
	type page struct {
		Entries []struct {
			Key     string `json:"key"`
			Value   []byte `json:"value"`
			Version uint64 `json:"version"`
		} `json:"entries"`
		More bool `json:"more"`
	}
	var keys []string
	after := ""
	for pages := 0; ; pages++ {
		if pages > n {
			t.Fatal("pagination did not terminate")
		}
		st, _, body := f.do(t, "GET", "/scan?limit=4&after="+after, "", nil)
		if st != http.StatusOK {
			t.Fatalf("scan = %d %s", st, body)
		}
		var p page
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatalf("scan body %q: %v", body, err)
		}
		if len(p.Entries) > 4 {
			t.Fatalf("page larger than limit: %d", len(p.Entries))
		}
		for _, e := range p.Entries {
			if e.Version == 0 {
				t.Fatalf("entry %q missing version", e.Key)
			}
			keys = append(keys, e.Key)
			after = e.Key
		}
		if !p.More {
			break
		}
	}
	if len(keys) != n {
		t.Fatalf("scan returned %d keys %v, want %d distinct", len(keys), keys, n)
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatalf("keys not strictly sorted: %v", keys)
		}
	}
}

// sseEvent reads one "event:"+"data:" pair from an SSE stream.
func sseEvent(t *testing.T, sc *bufio.Scanner) (string, []byte) {
	t.Helper()
	event, data := "", []byte(nil)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && event != "":
			return event, data
		}
	}
	t.Fatalf("SSE stream ended early: %v", sc.Err())
	return "", nil
}

// TestWatchSSE: the watch endpoint streams put and delete events for
// the prefix as SSE, and tears down every shard subscription when the
// client disconnects — no goroutine leaks (the satellite's
// goroutine-count assertion).
func TestWatchSSE(t *testing.T) {
	f := newFixture(t, 3)

	openWatch := func() (*http.Response, *bufio.Scanner) {
		t.Helper()
		resp, err := http.Get(f.ts.URL + "/watch?prefix=w/")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("watch = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("watch content-type = %q", ct)
		}
		return resp, bufio.NewScanner(resp.Body)
	}

	resp, sc := openWatch()
	f.do(t, "PUT", "/kv/w/one", "hello", nil)
	event, data := sseEvent(t, sc)
	var ev struct {
		Key     string `json:"key"`
		Value   []byte `json:"value"`
		Version uint64 `json:"version"`
	}
	if err := json.Unmarshal(data, &ev); err != nil {
		t.Fatalf("event data %q: %v", data, err)
	}
	if event != "put" || ev.Key != "w/one" || !bytes.Equal(ev.Value, []byte("hello")) || ev.Version == 0 {
		t.Fatalf("event = %s %+v", event, ev)
	}
	// Keys outside the prefix are not delivered: write one, then a
	// second prefixed key, and assert the next event is the latter.
	f.do(t, "PUT", "/kv/other", "x", nil)
	f.do(t, "PUT", "/kv/w/two", "y", nil)
	if event, data = sseEvent(t, sc); event != "put" {
		t.Fatalf("second event = %s %s", event, data)
	}
	_ = json.Unmarshal(data, &ev)
	if ev.Key != "w/two" {
		t.Fatalf("second event key = %q, want w/two (prefix filter)", ev.Key)
	}
	resp.Body.Close()

	// The first watch cycle above warmed every persistent connection
	// (mux sessions, HTTP keep-alives). Wait for its own teardown to
	// finish, take that as the baseline, then churn more watches: a
	// leaked PrefixWatch holds one goroutine per shard per watch, so
	// the count after churn would sit well above this baseline.
	baseline := stableGoroutines(t)
	for i := 0; i < 5; i++ {
		r, s := openWatch()
		f.do(t, "PUT", fmt.Sprintf("/kv/w/churn%d", i), "z", nil)
		sseEvent(t, s)
		r.Body.Close()
	}
	if after := settleGoroutines(t, baseline+3); after > baseline+3 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines: baseline %d, now %d — watch subscriptions leaked\n%s",
			baseline, after, buf[:runtime.Stack(buf, true)])
	}
}

// stableGoroutines waits for in-flight teardown to finish: it polls
// until the goroutine count stops shrinking for ten straight samples
// and returns the settled count.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	n, stable := runtime.NumGoroutine(), 0
	deadline := time.Now().Add(5 * time.Second)
	for stable < 10 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		runtime.GC()
		if m := runtime.NumGoroutine(); m < n {
			n, stable = m, 0
		} else {
			stable++
		}
	}
	return n
}

// settleGoroutines polls until the goroutine count drops to target or
// stops shrinking, returning the settled count.
func settleGoroutines(t *testing.T, target int) int {
	t.Helper()
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if n = runtime.NumGoroutine(); n <= target {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	return n
}

// TestStatsAndSLOEndpoints: the introspection surface reports the
// traffic the gateway served, split by SLO class, and the controller's
// live operating points.
func TestStatsAndSLOEndpoints(t *testing.T) {
	f := newFixture(t, 2)
	f.do(t, "PUT", "/kv/s1", "v", nil)
	for i := 0; i < 5; i++ {
		f.do(t, "GET", "/kv/s1", "", map[string]string{"X-SLO-Class": "api"})
	}
	f.do(t, "GET", "/kv/s1", "", nil)

	st, _, body := f.do(t, "GET", "/stats", "", nil)
	if st != http.StatusOK {
		t.Fatalf("stats = %d %s", st, body)
	}
	var stats struct {
		Shards      []string `json:"shards"`
		Replication int      `json:"replication"`
		Ops         int64    `json:"ops"`
		Cancelled   *int64   `json:"cancelled_copies"`
		Dropped     *int64   `json:"dropped_copies"`
		Governor    any      `json:"governor"`
		Labels      []struct {
			Label string `json:"label"`
			Ops   int64  `json:"ops"`
		} `json:"labels"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body %q: %v", body, err)
	}
	if len(stats.Shards) != 2 || stats.Replication != 2 || stats.Ops < 6 || stats.Governor != nil {
		t.Fatalf("stats = %+v, want no governor section: the controller was given none", stats)
	}
	// Both kinds of loser are reported, withdrawn and skipped; how the six
	// reads' losers split between them (and decoded) is the scheduler's.
	if stats.Cancelled == nil || stats.Dropped == nil || *stats.Cancelled+*stats.Dropped > 6 {
		t.Fatalf("stats body %s: want cancelled_copies and dropped_copies, together at most one per read", body)
	}
	found := false
	for _, l := range stats.Labels {
		if l.Label == "api" && l.Ops == 5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stats labels = %+v, want api with 5 ops", stats.Labels)
	}

	st, _, body = f.do(t, "GET", "/slo", "", nil)
	if st != http.StatusOK {
		t.Fatalf("slo = %d %s", st, body)
	}
	var sl struct {
		Enabled bool `json:"enabled"`
		Classes []struct {
			Class       string  `json:"class"`
			TargetP99Ms float64 `json:"target_p99_ms"`
			Fanout      int     `json:"fanout"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatalf("slo body %q: %v", body, err)
	}
	if !sl.Enabled {
		t.Fatal("slo endpoint reports disabled with a controller installed")
	}
	byName := map[string]bool{}
	for _, c := range sl.Classes {
		byName[c.Class] = true
		if c.Fanout < 1 || c.TargetP99Ms <= 0 {
			t.Fatalf("class %+v has invalid operating point", c)
		}
	}
	if !byName["default"] || !byName["api"] {
		t.Fatalf("slo classes = %+v, want default and api", sl.Classes)
	}
}

// TestGatewayWithoutController: the gateway degrades gracefully — class
// headers still label metrics, quorum reads fall back to the client's
// default, and /slo reports disabled.
func TestGatewayWithoutController(t *testing.T) {
	ctr := core.NewCounters()
	srv := memkv.NewServer(nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sc := memkv.NewShardedClient(memkv.ShardedConfig{Replication: 1, Observer: ctr},
		memkv.NewMuxClient(addr.String(), 2*time.Second))
	t.Cleanup(func() { sc.Close() })
	ts := httptest.NewServer(New(Config{Client: sc, Counters: ctr}))
	t.Cleanup(ts.Close)
	f := &fixture{ts: ts}

	f.do(t, "PUT", "/kv/k", "v", nil)
	st, _, body := f.do(t, "GET", "/kv/k", "", map[string]string{"X-SLO-Class": "api", "X-Consistency": "quorum"})
	if st != http.StatusOK || string(body) != "v" {
		t.Fatalf("GET = %d %q", st, body)
	}
	labelOps := func(label string) int64 {
		s, _ := ctr.LabelSnapshot(label)
		return s.Ops
	}
	if labelOps("api") != 0 {
		// Quorum reads bypass the labeled hedging path by design.
		t.Fatalf("quorum read unexpectedly labeled")
	}
	st, _, _ = f.do(t, "GET", "/kv/k", "", map[string]string{"X-SLO-Class": "api"})
	if st != http.StatusOK || labelOps("api") != 1 {
		t.Fatalf("labeled primary read: st=%d labelOps=%d, want 1", st, labelOps("api"))
	}
	st, _, body = f.do(t, "GET", "/slo", "", nil)
	var sl struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(body, &sl); err != nil || st != http.StatusOK || sl.Enabled {
		t.Fatalf("slo without controller = %d %s (err %v)", st, body, err)
	}
}

// TestClassedQuorumReadReturnsNewest: X-Consistency: quorum is the
// client's default read quorum whatever the class. Over two shards at
// replication 2 the newest version sits on one owner only, and that
// owner is stalled: a quorum read labelled with a class must still wait
// for it and return its bytes and version, as the unlabelled read does.
func TestClassedQuorumReadReturnsNewest(t *testing.T) {
	var stall [2]atomic.Bool
	f := startFixture(t, 2, nil, func(i int) func() time.Duration {
		return func() time.Duration {
			if stall[i].Load() {
				return 50 * time.Millisecond
			}
			return 0
		}
	})
	if st, _, body := f.do(t, "PUT", "/kv/qk", "old", nil); st != http.StatusOK {
		t.Fatalf("PUT = %d %s", st, body)
	}
	fresh := f.sc.Owners("qk")[0]
	newVer := f.sc.NextVersion()
	if _, applied, err := f.sc.VersionedShard(fresh).PutV(context.Background(), "qk", []byte("new"), 0, newVer); err != nil || !applied {
		t.Fatalf("PutV to the fresh owner = (applied %v, %v)", applied, err)
	}
	stall[slices.Index(f.sc.ShardAddrs(), fresh)].Store(true)

	for _, hdr := range []map[string]string{
		{"X-Consistency": "quorum", "X-SLO-Class": "api"},
		{"X-Consistency": "quorum"},
	} {
		st, h, body := f.do(t, "GET", "/kv/qk", "", hdr)
		if st != http.StatusOK || string(body) != "new" || h.Get("X-Version") != fmt.Sprint(newVer) {
			t.Errorf("GET with %v = %d %q at version %s, want \"new\" at %d", hdr, st, body, h.Get("X-Version"), newVer)
		}
	}
}

// TestGovernorGivenOnceGovernsClassedReads: the gateway is built from a
// controller that was given a governor — the one place it is given, with
// no wrap anywhere. With that governor gated, a classed GET at a k=2
// rung launches one copy, and /stats reports the governor.
func TestGovernorGivenOnceGovernsClassedReads(t *testing.T) {
	gov := core.NewGovernor(2, 0)
	for i := 0; i < 64; i++ {
		gov.Observe(5)
	}
	if gov.Allow(2); !gov.Gated() {
		t.Fatal("setup: governor not gated")
	}
	f := startFixture(t, 2, gov, nil)
	f.do(t, "PUT", "/kv/g", "v", nil)
	f.ctl.SetTarget("api", slo.Target{P99: time.Millisecond, MaxExtraLoad: 1})
	if op, _ := f.ctl.Step("api", slo.Window{P99: time.Second, Samples: 1000, Utilization: -1}); op.Fanout != 2 {
		t.Fatalf("setup: api at %+v, want k=2", op)
	}

	st, _, body := f.do(t, "GET", "/kv/g", "", map[string]string{"X-SLO-Class": "api"})
	if st != http.StatusOK || string(body) != "v" {
		t.Fatalf("GET = %d %q", st, body)
	}
	if ls, _ := f.ctr.LabelSnapshot("api"); ls.Ops != 1 || ls.Launched != 1 {
		t.Fatalf("classed GET at k=2 past the gate: %d ops, %d copies; want one copy", ls.Ops, ls.Launched)
	}

	_, _, body = f.do(t, "GET", "/stats", "", nil)
	var stats struct {
		Governor *struct {
			Gated bool  `json:"gated"`
			Flips int64 `json:"flips"`
		} `json:"governor"`
	}
	if err := json.Unmarshal(body, &stats); err != nil || stats.Governor == nil || !stats.Governor.Gated || stats.Governor.Flips != 1 {
		t.Fatalf("stats body %s (%v): want a governor section, gated after one flip", body, err)
	}
}

// TestDataPathSkipsServeMuxUnseen: ServeHTTP answers plain GET and PUT
// of /kv/<key> without the ServeMux; for every request, whichever way it
// went, the reply is what the ServeMux alone gives — same status, same
// redirect target, same body, same headers the handlers set.
func TestDataPathSkipsServeMuxUnseen(t *testing.T) {
	f := newFixture(t, 2)
	f.do(t, "PUT", "/kv/k", "v", nil)
	f.do(t, "PUT", "/kv/a/b", "nested", nil)
	gw := New(Config{Client: f.sc})

	cases := []struct {
		method, target string
		fast           bool // the shortcut should recognise it
	}{
		{"GET", "/kv/k", true},
		{"GET", "/kv/a/b", true},
		{"GET", "/kv/missing", true},
		{"GET", "/kv/", true}, // empty key: 400 either way
		{"GET", "/kv/k/", true},
		{"PUT", "/kv/k", true},
		{"GET", "/kv/a%20b", true}, // unescapes to whitespace: 400 either way
		{"HEAD", "/kv/k", false},
		{"DELETE", "/kv/k", false}, // 405
		{"POST", "/kv/k", false},
		{"GET", "/kv", false},    // redirect to /kv/
		{"GET", "/kv//k", false}, // cleaned and redirected
		{"GET", "/kv/a/../k", false},
		{"GET", "/kv/a/./b", false},
		{"GET", "/kv/a/..", false},
		{"GET", "/kv/.hidden", false}, // served, by the ServeMux
		{"GET", "/kv/a%2Fb", false},   // escaped slash: RawPath set
		{"PUT", "/kv/a%2Fb", false},
		{"GET", "/kvx/k", false}, // 404
		{"GET", "/other", false},
		{"GET", "/scan?limit=1", false},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.target, func(t *testing.T) {
			serve := func(h http.Handler) *httptest.ResponseRecorder {
				var body io.Reader
				if tc.method == "PUT" {
					body = strings.NewReader("v")
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, body))
				return rec
			}
			req := httptest.NewRequest(tc.method, tc.target, nil)
			if _, ok := kvKey(req.URL); (ok && (tc.method == "GET" || tc.method == "PUT")) != tc.fast {
				t.Errorf("shortcut recognised = %v, want %v", !tc.fast, tc.fast)
			}
			got, want := serve(gw), serve(gw.mux)
			if got.Code != want.Code {
				t.Fatalf("status %d, the ServeMux alone gives %d", got.Code, want.Code)
			}
			for _, h := range []string{"Location", "Content-Type", "Allow"} {
				if g, w := got.Header().Get(h), want.Header().Get(h); g != w {
					t.Errorf("%s = %q, the ServeMux alone gives %q", h, g, w)
				}
			}
			switch {
			case tc.method == "PUT" && got.Code == http.StatusOK:
				// Each PUT mints a fresh version.
			case got.Code >= 400 && got.Header().Get("Content-Type") == "application/json":
				// The detail joins per-copy errors in completion order.
				if g, w := errOf(t, got.Body.Bytes()), errOf(t, want.Body.Bytes()); g != w {
					t.Errorf("error code %q, the ServeMux alone gives %q", g, w)
				}
			default:
				if g, w := got.Body.String(), want.Body.String(); g != w {
					t.Errorf("body %q, the ServeMux alone gives %q", g, w)
				}
			}
		})
	}
}

// nullWriter is the cheapest http.ResponseWriter, so that what a request
// allocates is the gateway's and the layers' below it.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// TestGetAllocationBudget: a GET of a 1 KiB value through ServeHTTP
// allocates one time less than the ShardedClient.Get under it. The
// gateway adds nothing of its own — no routing tree walk, no header
// canonicalisation, no per-reply header slice — and is cheaper than the
// bare call because it does what that caller does not: having written the
// value out it gives the buffer back (memkv.Release), so its next read
// lands in the same bytes, while the bare Get keeps every value it reads
// and pays for each. (Both sides count every goroutine of the process,
// the shard servers' included; a single-copy read keeps that count
// exact.) nullWriter hands back a map it owns and copies nothing, so
// this budget does not see what net/http's writer charges a handler that
// asks for its header map — the Header.Clone at WriteHeader;
// TestGetReplyHeaderAllocations pins that cost over a real socket.
func TestGetAllocationBudget(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFixture(t, 2)
	f.sc.SetReadStrategy(core.Fixed{Copies: 1})
	f.do(t, "PUT", "/kv/k", strings.Repeat("v", 1024), nil)
	gw := New(Config{Client: f.sc})
	req := httptest.NewRequest("GET", "/kv/k", nil)
	w := &nullWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		gw.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("GET = %d", w.status)
		}
	}
	get := func() {
		if _, err := f.sc.Get(req.Context(), "k"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		serve()
		get()
	}
	// Two collections empty every sync.Pool: a buffer an earlier test gave
	// back would let the bare Get read into it and count as cheaper than
	// it is.
	runtime.GC()
	runtime.GC()
	below := testing.AllocsPerRun(2000, get)
	through := testing.AllocsPerRun(2000, serve)
	t.Logf("GET through the gateway %.2f, the read under it %.2f", through, below)
	if through > below-1 {
		t.Errorf("GET through the gateway allocates %.0f, the read under it %.0f: want one less, the value it gives back", through, below)
	}
}

// TestControlledGetAllocatesNoMore: a GET under the SLO controller, which
// cmd/gateway always wires, allocates no more through ServeHTTP than one
// with no controller, unlabeled or in a class: its call options — the
// class's label and strategy view — are values in an array handleGet
// owns. (The controller starts every class on its one-copy rung.)
func TestControlledGetAllocatesNoMore(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFixture(t, 2)
	f.sc.SetReadStrategy(core.Fixed{Copies: 1})
	f.do(t, "PUT", "/kv/k", strings.Repeat("v", 1024), nil)
	w := &nullWriter{h: make(http.Header)}
	perGet := func(gw *Gateway, class string) float64 {
		req := httptest.NewRequest("GET", "/kv/k", nil)
		if class != "" {
			req.Header.Set("X-SLO-Class", class)
		}
		serve := func() {
			clear(w.h)
			gw.ServeHTTP(w, req)
			if w.status != http.StatusOK {
				t.Fatalf("GET = %d", w.status)
			}
		}
		for i := 0; i < 100; i++ {
			serve()
		}
		return testing.AllocsPerRun(2000, serve)
	}
	bare := perGet(New(Config{Client: f.sc}), "")
	controlled := New(Config{Client: f.sc, Controller: f.ctl, Counters: f.ctr})
	for _, class := range []string{"", "checkout"} {
		avg := perGet(controlled, class)
		t.Logf("GET under the controller, class %q: %.2f allocs; with no controller %.2f", class, avg, bare)
		if avg > bare {
			t.Errorf("a controlled GET (class %q) allocates %.2f, one with no controller %.2f: want no more", class, avg, bare)
		}
	}
}

// rawGet sends one rendered GET request on a keep-alive connection and
// reads the reply into buf — a status line, headers, a Content-Length
// body — with no allocation of its own, so that what a round trip
// allocates is the server's.
func rawGet(t *testing.T, c net.Conn, r *bufio.Reader, req, buf []byte) {
	t.Helper()
	if _, err := c.Write(req); err != nil {
		t.Fatal(err)
	}
	status, err := r.ReadSlice('\n')
	if err != nil || !bytes.HasPrefix(status, []byte("HTTP/1.1 200 ")) {
		t.Fatalf("status line %q (%v)", status, err)
	}
	n := -1
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			t.Fatal(err)
		}
		if len(line) == 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
		}
	}
	if n != len(buf) {
		t.Fatalf("Content-Length %d, want %d", n, len(buf))
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
}

// TestGetReplyHeaderAllocations: over a real socket, a GET of a value
// that sniffs as bytes makes at least 3 fewer allocations than a GET of
// a text value of the same length: the bytes reply never asks for its
// header map, so net/http neither fills the map's first group nor clones
// the map at WriteHeader. (Counts are the whole process's: the server's
// connection goroutine, the shards and this client.)
func TestGetReplyHeaderAllocations(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFixture(t, 2)
	f.sc.SetReadStrategy(core.Fixed{Copies: 1})
	val := benchShaped(42, 64)
	if got := http.DetectContentType(val); got != "application/octet-stream" {
		t.Fatalf("setup: the binary value sniffs as %q", got)
	}
	f.do(t, "PUT", "/kv/alloc-bin", string(val), nil)
	f.do(t, "PUT", "/kv/alloc-txt", strings.Repeat("v", len(val)), nil)
	ts := httptest.NewServer(New(Config{Client: f.sc}))
	defer ts.Close()
	c, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	buf := make([]byte, len(val))
	perGet := func(key string) float64 {
		req := []byte("GET /kv/" + key + " HTTP/1.1\r\nHost: x\r\n\r\n")
		get := func() { rawGet(t, c, r, req, buf) }
		for i := 0; i < 100; i++ {
			get()
		}
		return testing.AllocsPerRun(1000, get)
	}
	txt, bin := perGet("alloc-txt"), perGet("alloc-bin")
	t.Logf("GET over a socket: text value %.0f allocs, binary value %.0f", txt, bin)
	if bin > txt-3 {
		t.Errorf("a GET of a binary value allocates %.0f, of a text value %.0f: want at least 3 fewer, the reply's header map and its clone", bin, txt)
	}
}

// TestPutReplyMatchesEncoder: the hand-appended PUT reply is, byte for
// byte, what json.Encoder wrote for the same object — the trailing
// newline included.
func TestPutReplyMatchesEncoder(t *testing.T) {
	for _, v := range []uint64{0, 1, 42, 1755000000000000000, ^uint64(0)} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]uint64{"version": v}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeVersion(rec, v)
		if got := rec.Body.String(); got != want.String() {
			t.Errorf("version %d: reply %q, json.Encoder gives %q", v, got, want.String())
		}
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("version %d: status %d, Content-Type %q", v, rec.Code, rec.Header().Get("Content-Type"))
		}
	}
}

// TestPutBodyLengths: a body is accepted up to the limit and refused
// over it with 400, whether its length was declared or it arrived
// chunked; a body that ends short of its declared length is a 400 too.
func TestPutBodyLengths(t *testing.T) {
	f := newFixture(t, 2)
	const limit = maxValueBytes
	ts := httptest.NewServer(New(Config{Client: f.sc}))
	defer ts.Close()
	put := func(key string, body io.Reader) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest("PUT", ts.URL+"/kv/"+key, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	// io.MultiReader hides the length from the client: the body goes out
	// chunked and the server sees ContentLength -1.
	chunked := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) }
	atLimit, over := strings.Repeat("v", limit), strings.Repeat("v", limit+1)
	cases := []struct {
		name string
		body io.Reader
		want int
		val  string
	}{
		{"declared-at-limit", strings.NewReader(atLimit), http.StatusOK, atLimit},
		{"declared-over-limit", strings.NewReader(over), http.StatusBadRequest, ""},
		{"declared-empty", strings.NewReader(""), http.StatusOK, ""},
		{"chunked-at-limit", chunked(atLimit), http.StatusOK, atLimit},
		{"chunked-over-limit", chunked(over), http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, body := put(tc.name, tc.body)
			if st != tc.want {
				t.Fatalf("status %d, want %d (body %s)", st, tc.want, body)
			}
			if st != http.StatusOK {
				if code := errOf(t, body); code != "bad_request" {
					t.Errorf("error code %q, want bad_request", code)
				}
				return
			}
			got, err := f.sc.Get(context.Background(), tc.name)
			if err != nil || string(got) != tc.val {
				t.Errorf("stored (%q, %v), want %q", got, err, tc.val)
			}
		})
	}
	// A length the header puts over the limit is refused on the header's
	// word: none of the body is read.
	t.Run("declared-over-limit-unread", func(t *testing.T) {
		body := &countingBody{}
		req := httptest.NewRequest("PUT", "/kv/unread", nil)
		req.ContentLength = limit + 1
		req.Body = body
		rec := httptest.NewRecorder()
		New(Config{Client: f.sc}).ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || errOf(t, rec.Body.Bytes()) != "bad_request" {
			t.Errorf("status %d body %s, want 400 bad_request", rec.Code, rec.Body)
		}
		if body.reads != 0 {
			t.Errorf("the handler read the body %d times to learn what Content-Length said", body.reads)
		}
	})
	t.Run("declared-short", func(t *testing.T) {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fmt.Fprintf(conn, "PUT /kv/short HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\nhalf")
		conn.(*net.TCPConn).CloseWrite()
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d for a body 6 bytes short, want 400", resp.StatusCode)
		}
		if _, err := f.sc.Get(context.Background(), "short"); !errors.Is(err, memkv.ErrNotFound) {
			t.Errorf("a short body was stored: %v", err)
		}
	})
}

// countingBody is an endless request body that counts the reads made of
// it.
type countingBody struct{ reads int }

func (b *countingBody) Read(p []byte) (int, error) { b.reads++; return len(p), nil }
func (*countingBody) Close() error                 { return nil }

// rewindBody is a request body a test can serve again and again.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestPutAllocationBudget: a PUT of a 1 KiB value through ServeHTTP
// allocates what the PutVersioned under it allocates and nothing more.
// The body is read into a buffer the previous PUT gave back — the write
// borrows it only until it returns — and the reply is rendered in pooled
// scratch. (Measured: equal; 1 over when every body was a fresh slice,
// 12 over with the handler's ReadAll, url.Query and json.Encoder.)
func TestPutAllocationBudget(t *testing.T) {
	if coretest.Race() {
		t.Skip("allocation counts are not exact under the race detector")
	}
	f := newFixture(t, 2)
	gw := New(Config{Client: f.sc})
	value := bytes.Repeat([]byte{'v'}, 1024)
	body := &rewindBody{}
	req := httptest.NewRequest("PUT", "/kv/key-000042", nil)
	req.ContentLength = int64(len(value))
	req.Body = body
	w := &nullWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		body.Reset(value)
		gw.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("PUT = %d", w.status)
		}
	}
	put := func() {
		if _, err := f.sc.PutVersioned(req.Context(), "key-000042", value, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		serve()
		put()
	}
	below := testing.AllocsPerRun(2000, put)
	through := testing.AllocsPerRun(2000, serve)
	t.Logf("PUT through the gateway %.2f, the write under it %.2f", through, below)
	if through > below {
		t.Errorf("PUT through the gateway allocates %.0f, the write under it %.0f: the gateway adds %.0f, want 0", through, below, through-below)
	}
}

// TestPutKeepsConnectionAlive: the handler closes the body it has read to
// its declared end, which must not cost the connection — the second PUT
// and the GET after it ride the socket the first PUT opened, and the
// server sees that one connection only.
func TestPutKeepsConnectionAlive(t *testing.T) {
	f := newFixture(t, 2)
	var conns atomic.Int32
	ts := httptest.NewUnstartedServer(New(Config{Client: f.sc}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	client := ts.Client()
	value := strings.Repeat("v", 1024)
	for i, method := range []string{"PUT", "PUT", "GET"} {
		var body io.Reader
		if method == "PUT" {
			body = strings.NewReader(value)
		}
		req, err := http.NewRequest(method, ts.URL+"/kv/keepalive", body)
		if err != nil {
			t.Fatal(err)
		}
		var reused bool
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d (%s) = %d %q (%v)", i, method, resp.StatusCode, got, err)
		}
		if method == "GET" && string(got) != value {
			t.Errorf("GET after the PUTs returned %d bytes, want the %d stored", len(got), len(value))
		}
		if reused != (i > 0) {
			t.Errorf("request %d (%s): connection reused = %v, want %v", i, method, reused, i > 0)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("the server accepted %d connections for three requests, want 1", n)
	}
}

// stressValue is a value that proves itself: its key, a sequence number,
// padding to n bytes, and a CRC of all that.
func stressValue(key string, seq, n int) []byte {
	b := make([]byte, n)
	copy(b, fmt.Sprintf("%s#%d|", key, seq))
	binary.BigEndian.PutUint32(b[n-4:], crc32.ChecksumIEEE(b[:n-4]))
	return b
}

// TestPutGetSharedBuffersStress: the gateway reads every PUT body into a
// buffer some earlier request gave back and gives every GET's value back
// once written, so all sixteen clients here are passing the same few
// buffers around. Each writes a fresh self-checking value under its own
// key and reads it back twice, once hedged and once as a quorum read,
// for a second, and every body must be exactly what that client last
// wrote: a buffer handed to two requests at once, or recycled while the
// socket write, a put's copy or a quorum read's divergence report still
// needed it, shows as another key's bytes or a broken CRC. Run with
// -race: Release then poisons what it pools.
func TestPutGetSharedBuffersStress(t *testing.T) {
	f := newFixture(t, 3)
	client := f.ts.Client()
	deadline := time.Now().Add(time.Second)
	var wg sync.WaitGroup
	var rounds atomic.Int64
	// exchange reads a reply to its end and reports whether it was a 200.
	exchange := func(resp *http.Response, err error) ([]byte, bool) {
		if err != nil {
			t.Error(err)
			return nil, false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d (%v): %.40q", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, err, body)
			return nil, false
		}
		return body, true
	}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("stress-%02d", c)
			url := f.ts.URL + "/kv/" + key
			for seq := 0; time.Now().Before(deadline); seq++ {
				// Sizes on both sides of a class boundary, so a buffer is
				// reused for values shorter than the one it was made for.
				want := stressValue(key, seq, 900+(seq*37+c)%400)
				req, err := http.NewRequest("PUT", url, bytes.NewReader(want))
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := exchange(client.Do(req)); !ok {
					return
				}
				for _, consistency := range []string{"primary", "quorum"} {
					req, err := http.NewRequest("GET", url, nil)
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("X-Consistency", consistency)
					got, ok := exchange(client.Do(req))
					if !ok {
						return
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s round %d: %s GET returned %d bytes %.40q…, want the %d bytes %.40q… just written", key, seq, consistency, len(got), got, len(want), want)
						return
					}
				}
				rounds.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := rounds.Load(); n < 16 {
		t.Errorf("%d PUT+GET rounds in a second: too few to have shared a buffer", n)
	}
}
