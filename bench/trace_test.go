package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"redundancy/internal/memkv"
)

func TestCoverIsTheUnionOfChildrenInsideTheParent(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 0},
		{"one child inside", [][2]int64{{10, 30}}, 20},
		{"two apart", [][2]int64{{10, 20}, {50, 70}}, 30},
		{"two overlapping count once", [][2]int64{{10, 40}, {30, 60}}, 50},
		{"one inside another", [][2]int64{{10, 90}, {20, 30}}, 80},
		{"given out of order", [][2]int64{{50, 70}, {10, 20}}, 30},
		{"child outlives parent", [][2]int64{{80, 150}}, 20},
		{"child starts before parent", [][2]int64{{-20, 10}}, 10},
		{"child wholly outside", [][2]int64{{120, 150}}, 0},
	} {
		if got := cover(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: cover = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAnalyzeSelfTimeAndCounts(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		// Request 1 over HTTP: hedged read, second copy 2 ms + 300 µs after the first.
		{ID: 1, Req: 1, Kind: spanOp, Start: us(0), End: us(5000), Shard: -1},
		{ID: 2, Parent: 1, Req: 1, Kind: spanHandler, Start: us(100), End: us(4900), Shard: -1},
		{ID: 3, Parent: 2, Req: 1, Kind: spanCopyGet, Start: us(200), End: us(4800), Outcome: outcomeCancelled, Shard: 0},
		{ID: 4, Parent: 2, Req: 1, Kind: spanCopyGet, Start: us(2500), End: us(4700), Shard: 1},
		// Request 5 straight into ShardedClient: two copies at once.
		{ID: 5, Req: 5, Kind: spanShardedGet, Start: us(10000), End: us(10100), Shard: -1},
		{ID: 6, Parent: 5, Req: 5, Kind: spanCopyGet, Start: us(10010), End: us(10090), Shard: 2},
		{ID: 7, Parent: 5, Req: 5, Kind: spanCopyGet, Start: us(10020), End: us(10095), Shard: 0},
	}
	if lag := analyze(slices.Clone(spans[:4]), 2*time.Millisecond).hedgeFireLagUS; lag != 300 {
		t.Errorf("hedge fire lag = %v us, want 300", lag)
	}
	wt := analyze(spans, 0)
	if wt.ops != 2 || wt.readCopies != 4 || wt.readCopiesOK != 3 || wt.cancelled != 1 || wt.allCopies != 4 {
		t.Errorf("ops %d, read copies %d (%d ok), cancelled %d, all copies %d; want 2, 4 (3 ok), 1, 4",
			wt.ops, wt.readCopies, wt.readCopiesOK, wt.cancelled, wt.allCopies)
	}
	if wt.httpSelfUS != 200 { // 5000 - 4800
		t.Errorf("http self = %v us, want 200", wt.httpSelfUS)
	}
	if wt.handlerUS != 4800 || wt.handlerSelfUS != 200 { // copies cover 200..4800
		t.Errorf("handler = %v us, self %v us; want 4800, 200", wt.handlerUS, wt.handlerSelfUS)
	}
	if wt.shardedGetUS != 100 || wt.shardedSelfUS != 15 { // copies cover 10010..10095
		t.Errorf("sharded get = %v us, self %v us; want 100, 15", wt.shardedGetUS, wt.shardedSelfUS)
	}
	if wt.hedgeFireLagUS != 0 {
		t.Errorf("hedge fire lag without a hedge delay = %v us, want 0", wt.hedgeFireLagUS)
	}
}

// The wrapper must leave every capability ShardedClient looks for in
// place, or a traced run would silently measure another code path.
func TestTracedMuxKeepsOptionalInterfaces(t *testing.T) {
	var b memkv.Backend = &tracedMux{MuxClient: memkv.NewMuxClient("127.0.0.1:1", time.Second), rec: newRecorder()}
	if _, ok := b.(memkv.VersionedBackend); !ok {
		t.Error("tracedMux is not a VersionedBackend")
	}
	if _, ok := b.(memkv.CASBackend); !ok {
		t.Error("tracedMux is not a CASBackend")
	}
	if _, ok := b.(memkv.WatchableBackend); !ok {
		t.Error("tracedMux is not a WatchableBackend")
	}
}

// A traced stack records one span per copy, tied to the caller's request
// through the context, and counts what core.Counters counts.
func TestTracedStackRecordsCopies(t *testing.T) {
	wl := workloadByName("lib_get_k2")
	rec := newRecorder()
	s, clients, err := setUp(wl, 1, 1, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tearDown(s, clients)
	if got := len(rec.take()); got != 0 {
		t.Fatalf("%d spans recorded while the recorder was off", got)
	}
	before := s.counts()
	rec.on.Store(true)
	const reads = 50
	for k := 0; k < reads; k++ {
		if !clients[0].do(k, false) {
			t.Fatalf("read of %s failed", keyName(k))
		}
	}
	rec.on.Store(false)
	if !rec.quiesce(time.Second) {
		t.Fatal("copies still running")
	}
	delta := s.counts().minus(before)
	spans := rec.take()
	wt := analyze(spans, 0)
	if wt.ops != reads || int64(wt.readCopies) != delta.launched || delta.launched != 2*reads {
		t.Errorf("%d ops, %d copy spans, %d copies launched; want %d, %d, %d", wt.ops, wt.readCopies, delta.launched, reads, 2*reads, 2*reads)
	}
	for _, sp := range spans {
		if sp.Kind == spanCopyGet && (sp.Parent == 0 || sp.Req != sp.Parent || sp.Shard < 0) {
			t.Fatalf("copy span %+v is not tied to its request", sp)
		}
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeSpans(path, wl.name, 1, rec.epoch, spans); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workload string `json:"workload"`
		Spans    []struct {
			Name    string `json:"name"`
			Req     uint32 `json:"req"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if file.Workload != wl.name || len(file.Spans) != len(spans) {
		t.Fatalf("span file holds %d spans of %q, want %d of %q", len(file.Spans), file.Workload, len(spans), wl.name)
	}
	for _, sp := range file.Spans {
		if sp.Name == "" || sp.Req == 0 || sp.EndNS < sp.StartNS {
			t.Fatalf("span file holds a malformed span %+v", sp)
		}
	}
}

func TestTraceRefTravelsThroughContext(t *testing.T) {
	if ref := traceFrom(context.Background()); ref != (traceRef{}) {
		t.Errorf("bare context carries %+v", ref)
	}
	want := traceRef{req: 7, parent: 9}
	if ref := traceFrom(withTrace(context.Background(), want)); ref != want {
		t.Errorf("got %+v, want %+v", ref, want)
	}
}
