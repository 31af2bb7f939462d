package memkv

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNoTornReadUnderInPlaceOverwrite: a write of the same length
// overwrites the bytes the store holds, so every reader must copy them
// out while it holds the shard's lock. One client overwrites a key at
// 1 KiB, each version a single repeated byte, while readers on a second
// client — the server runs one connection's frames on one goroutine, so
// a single client cannot race its own writes — and in process read it:
// Get, GetV, Store.Get, Store.Scan, and a store watcher and a wire
// watcher that sleep between events, so that the next write lands while
// they hold an event. Every value must be uniform, and a versioned one
// must be its version's fill. Under -race a copy made outside the lock
// is also a data race.
func TestNoTornReadUnderInPlaceOverwrite(t *testing.T) {
	const (
		key    = "torn-key"
		size   = 1024
		writes = 2000
	)
	fill := func(ver uint64) byte { return 'a' + byte(ver%26) }
	srv, writer := startMux(t)
	reader := NewMuxClient(writer.Addr(), 5*time.Second)
	defer reader.Close()
	st := srv.Store()
	ctx := context.Background()
	if _, _, err := writer.PutV(ctx, key, bytes.Repeat([]byte{fill(1)}, size), 0, 1); err != nil {
		t.Fatal(err)
	}
	sw := st.Watch(key, maxWatchBuffer)
	mw, err := reader.Watch(ctx, key, maxWatchBuffer)
	if err != nil {
		t.Fatal(err)
	}

	var torn, seen atomic.Int64
	check := func(src string, v []byte, ver uint64) {
		seen.Add(1)
		if len(v) != size {
			torn.Add(1)
			t.Errorf("%s read %d bytes, want %d", src, len(v), size)
			return
		}
		want := v[0] // an unversioned reader (ver 0) checks uniformity only
		if ver != 0 {
			want = fill(ver)
		}
		if odd := size - bytes.Count(v, []byte{want}); odd > 0 && torn.Add(1) <= 3 {
			t.Errorf("%s read a torn value at version %d: %d of %d bytes are not %q", src, ver, odd, size, want)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	read := func(src string, get func() ([]byte, uint64, bool)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if v, ver, ok := get(); ok {
					check(src, v, ver)
				}
				time.Sleep(time.Microsecond) // leave the writer a CPU
			}
		}()
	}
	read("Get", func() ([]byte, uint64, bool) {
		v, err := reader.Get(ctx, key)
		if err != nil {
			t.Error(err)
		}
		return v, 0, err == nil
	})
	read("GetV", func() ([]byte, uint64, bool) {
		v, ver, _, err := reader.GetV(ctx, key)
		if err != nil {
			t.Error(err)
		}
		return v, ver, err == nil
	})
	read("Store.Get", func() ([]byte, uint64, bool) {
		v, _, ok := st.Get(key)
		return v, 0, ok
	})
	read("Store.Scan", func() ([]byte, uint64, bool) {
		es, _ := st.Scan("", 1)
		if len(es) != 1 {
			t.Errorf("Scan returned %d entries, want the one key", len(es))
			return nil, 0, false
		}
		return es[0].Value, es[0].Version, true
	})
	watch := func(src string, events <-chan WatchEvent) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range events {
				time.Sleep(time.Microsecond)
				check(src, ev.Value, ev.Version)
			}
		}()
	}
	watch("store watch", sw.Events())
	watch("wire watch", mw.Events())

	for ver := uint64(2); ver <= writes; ver++ {
		if _, applied, err := writer.PutV(ctx, key, bytes.Repeat([]byte{fill(ver)}, size), 0, ver); err != nil || !applied {
			t.Errorf("PutV at version %d = (%v, %v)", ver, applied, err)
			break
		}
	}
	close(done)
	sw.Close()
	mw.Close()
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Errorf("%d torn reads of %d", n, seen.Load())
	}
	t.Logf("%d reads", seen.Load())
}
