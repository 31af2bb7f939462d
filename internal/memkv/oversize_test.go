package memkv

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin the client-side value limit. The server answers a
// frame longer than maxValueLen by closing the connection, and since a
// MuxClient holds one connection per server, that would fail every
// request in flight to the server. A write whose value cannot fit is
// therefore refused by the client, unsent, with ErrValueTooLarge.

// oversize is the shortest value no write may carry: one byte past
// what fits one frame beside a versioned payload's header.
func oversize() []byte { return make([]byte, maxValueLen-verPayloadHeader+1) }

// TestOversizeValueSparesTheConnection: with a Get held by the server,
// an oversize PutV, CAS and batched put each fail with ErrValueTooLarge
// without being sent; the batch's other put lands, the held Get is
// answered, and the client still has the connection it started with.
func TestOversizeValueSparesTheConnection(t *testing.T) {
	var hold atomic.Bool
	held := make(chan struct{}, 1)
	_, addr := startServerDelay(t, func() time.Duration {
		if !hold.Load() {
			return 0
		}
		select {
		case held <- struct{}{}:
		default:
		}
		return 200 * time.Millisecond
	})
	cl := NewMuxClient(addr, 5*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if _, _, err := cl.PutV(ctx, "k", []byte("v"), 0, 1); err != nil {
		t.Fatal(err)
	}
	cn := cl.cn.Load()

	hold.Store(true)
	got := make(chan error, 1)
	go func() {
		v, err := cl.Get(ctx, "k")
		if err == nil && string(v) != "v" {
			err = errors.New("Get returned " + string(v))
		}
		got <- err
	}()
	<-held // the Get is parked on the server

	if _, _, err := cl.PutV(ctx, "big", oversize(), 0, 2); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversize PutV = %v, want ErrValueTooLarge", err)
	}
	if _, _, err := cl.CAS(ctx, "big", oversize(), 0, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversize CAS = %v, want ErrValueTooLarge", err)
	}
	res := cl.PutVBatch(ctx, []VersionedPut{
		{Key: "small", Value: []byte("s"), Version: 3},
		{Key: "big", Value: oversize(), Version: 4},
	})
	if res[0].Err != nil || !res[0].Applied {
		t.Errorf("the batch's small put = %+v, want applied", res[0])
	}
	if !errors.Is(res[1].Err, ErrValueTooLarge) {
		t.Errorf("the batch's oversize put = %+v, want ErrValueTooLarge", res[1])
	}
	if err := <-got; err != nil {
		t.Errorf("the held Get failed: %v", err)
	}
	if cl.cn.Load() != cn || cn.isDead() {
		t.Error("the client lost the connection it started with")
	}

	// The limit is exact: the longest value that fits one frame is sent.
	hold.Store(false)
	if _, applied, err := cl.PutV(ctx, "max", oversize()[1:], 0, 5); err != nil || !applied {
		t.Errorf("PutV at the limit = (%v, %v), want applied", applied, err)
	}
}

// TestOversizeWriteReachesNoOwner: every ShardedClient write refuses an
// oversize value before it mints a version or launches a copy, so no
// owner is sent a frame it would close its connection over, and the
// repair sink is told of no missed write to replay.
func TestOversizeWriteReachesNoOwner(t *testing.T) {
	sc, _, muxes := startAsyncShards(t, 3, ShardedConfig{Replication: 2}, 5*time.Second, nil)
	warmPuts(t, sc, muxes)
	sink := &recordingSink{}
	sc.SetRepairSink(sink)
	ctx := context.Background()
	conns := make([]*muxConn, len(muxes))
	for i, m := range muxes {
		conns[i] = m.cn.Load()
	}

	if _, err := sc.PutVersioned(ctx, "big", oversize(), 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversize PutVersioned = %v, want ErrValueTooLarge", err)
	}
	if err := sc.PutVersionAt(ctx, "big", oversize(), 0, sc.NextVersion()); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversize PutVersionAt = %v, want ErrValueTooLarge", err)
	}
	if _, err := sc.CAS(ctx, "big", oversize(), 0, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("oversize CAS = %v, want ErrValueTooLarge", err)
	}
	if _, err := sc.PutVersioned(ctx, "after", []byte("v"), 0); err != nil {
		t.Errorf("a put after the refused ones: %v", err)
	}
	sink.mu.Lock()
	missed := append([]string(nil), sink.missed...)
	sink.mu.Unlock()
	if len(missed) != 0 {
		t.Errorf("missed writes %v, want none: a refused write has nothing to replay", missed)
	}
	for i, m := range muxes {
		if m.cn.Load() != conns[i] || conns[i].isDead() {
			t.Errorf("client %s lost its connection", m.Addr())
		}
	}
}
