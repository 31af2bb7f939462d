package memkv

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"redundancy/internal/core/coretest"
)

// These tests pin deadlineQueue and its three owners: an entry never
// pops before its instant, a late fire pops everything that fell due
// meanwhile, the dead entries an owner leaves (answered tags,
// overwritten versions) are pruned rather than held until their
// instants, and a closed server's store is not kept alive by a pending
// TTL. Run with -race -count=5.

// recordingOwner owns a deadlineQueue of names and acts on each as its
// fire pops it, outside its lock, the way muxConn.timeoutsDue does.
type recordingOwner struct {
	mu  sync.Mutex
	q   deadlineQueue[string]
	act func(name string)
}

func newRecordingOwner(act func(string)) *recordingOwner {
	o := &recordingOwner{act: act}
	o.q.fire = o.due
	return o
}

func (o *recordingOwner) push(d time.Duration, name string) {
	o.mu.Lock()
	o.q.push(time.Now().Add(d), name)
	o.mu.Unlock()
}

func (o *recordingOwner) due() {
	var names []string
	o.mu.Lock()
	now := time.Now()
	for {
		name, ok := o.q.popDue(now)
		if !ok {
			break
		}
		names = append(names, name)
	}
	o.q.rearm()
	o.mu.Unlock()
	for _, name := range names {
		o.act(name)
	}
}

// TestDeadlineQueueNeverPopsEarly: an entry pops no sooner than its
// instant, whatever else the owner is doing. Here the callback of one
// entry blocks for 30ms with a 10s entry pending, and a 20ms entry is
// pushed 20ms into that block. A queue whose fire popped its head
// without looking at the clock, or placed an entry by the fires it had
// processed rather than by the clock, would pop one of them early.
func TestDeadlineQueueNeverPopsEarly(t *testing.T) {
	blocked := make(chan struct{})
	fired := make(chan time.Duration, 1)
	var armed time.Time
	var mu sync.Mutex
	o := newRecordingOwner(func(name string) {
		switch name {
		case "blocker":
			close(blocked)
			time.Sleep(30 * time.Millisecond)
		case "late":
			mu.Lock()
			fired <- time.Since(armed)
			mu.Unlock()
		default:
			t.Errorf("the %s entry popped before its instant", name)
		}
	})
	defer func() {
		o.mu.Lock()
		o.q.close()
		o.mu.Unlock()
	}()
	o.push(10*time.Second, "long")
	o.push(time.Millisecond, "blocker")
	<-blocked
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	armed = time.Now()
	mu.Unlock()
	o.push(20*time.Millisecond, "late")
	select {
	case el := <-fired:
		if el < 20*time.Millisecond {
			t.Fatalf("a 20ms entry popped %v after it was pushed", el)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the 20ms entry never popped")
	}
}

// keysInShard returns n keys that all hash to sh's shard of s.
func keysInShard(s *Store, sh *shard, n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("key-%d", i); s.shardFor(k) == sh {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestDeadlineQueueLateSweepExpiresEveryDueKey: a shard's TTL fire that
// runs late expires every key that fell due while it waited, not just
// the ones due around the instant it was armed for. The test holds the
// shard's lock across all 200 deadlines, spread over 20ms, so the fire
// runs only once every key is past due; each key must then expire
// actively — an expire event, the item gone — without a read reaping it.
func TestDeadlineQueueLateSweepExpiresEveryDueKey(t *testing.T) {
	s := NewStore()
	defer s.Close()
	sh := &s.shards[0]
	keys := keysInShard(s, sh, 200)
	w := s.Watch("key-", 2*len(keys))
	defer w.Close()
	start := time.Now()
	for i, k := range keys {
		s.SetTTL(k, 0, []byte("v"), 20*time.Millisecond+time.Duration(i)*100*time.Microsecond)
	}
	sh.mu.Lock()
	time.Sleep(time.Until(start.Add(80 * time.Millisecond)))
	sh.mu.Unlock()
	expired := map[string]bool{}
	timeout := time.After(5 * time.Second)
	for len(expired) < len(keys) {
		select {
		case ev := <-w.Events():
			if ev.Type == EventExpire {
				expired[ev.Key] = true
			}
		case <-timeout:
			t.Fatalf("%d of %d keys expired after a late sweep; %d still stored", len(expired), len(keys), s.Len())
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d items left after every key's expire event", n)
	}
}

// TestDeadlineQueuesPruneDeadEntries: an answered mux request leaves its
// tag's deadline in the connection's queue, and an overwrite leaves the
// old version's deadline in the shard's, each until its instant — 10s
// and an hour here. Pruning keeps each queue within twice its owner's
// live count plus queueSlack, the live count taken at the last push,
// however many such entries the traffic leaves.
func TestDeadlineQueuesPruneDeadEntries(t *testing.T) {
	requests := 100_000
	if coretest.Race() {
		requests = 10_000
	}
	_, addr := startServer(t)
	cl := NewMuxClient(addr, 10*time.Second)
	defer cl.Close()
	ctx := context.Background()
	if err := cl.Set(ctx, "present", []byte("v")); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range requests / workers {
				if _, err := cl.Get(ctx, "present"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A queue is pruned as it is pushed to, against the tags waiting
	// then: at most one per worker.
	cn := cl.cn.Load()
	cn.mu.Lock()
	queued := len(cn.timeouts.h)
	cn.mu.Unlock()
	if queued > 2*workers+queueSlack {
		t.Errorf("after %d answered requests from %d callers the connection's queue holds %d deadlines", requests, workers, queued)
	}

	s := NewStore()
	defer s.Close()
	for range 10_000 {
		s.SetTTL("overwritten", 0, []byte("v"), time.Hour)
	}
	sh := s.shardFor("overwritten")
	sh.mu.Lock()
	queued, live := len(sh.ttl.h), len(sh.m)
	sh.mu.Unlock()
	if queued > 2*live+queueSlack {
		t.Errorf("after 10000 overwrites the shard's queue holds %d deadlines for %d items", queued, live)
	}
}

// TestClosedServerStoreIsCollected: a closed server's store is garbage
// once nothing refers to it, even with an hour-long TTL pending — a
// pending runtime timer would otherwise keep it reachable for the hour.
func TestClosedServerStoreIsCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		srv := NewServer(nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cl := NewMuxClient(addr.String(), time.Second)
		if err := cl.SetTTL(context.Background(), "k", []byte("v"), time.Hour); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		runtime.AddCleanup(srv.Store(), func(c chan struct{}) { close(c) }, collected)
		srv.Close()
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("a closed server's store with a pending TTL was never collected")
}
