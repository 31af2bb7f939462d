package memkv

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the store-side watch registry: long-lived prefix
// subscriptions over a Store's mutations — the portworx-kvdb watch
// idiom rebuilt on the versioned store. Every mutation (put, versioned
// put, CAS, and expiry — lazy or sweeper-driven; there is no delete)
// emits one WatchEvent to every watcher whose prefix matches, under the
// same shard lock that applied the mutation, so a single key's events
// are delivered in version order.
//
// Watchers are deliberately cheap and deliberately bounded: each one is
// a buffered channel, delivery is a non-blocking send, and a watcher
// whose buffer is full when an event arrives is disconnected on the
// spot (ErrSlowWatcher) rather than allowed to backpressure writers or
// pin unbounded memory. Streams have no history: a watcher sees events
// from registration onward, and a disconnected watcher that
// resubscribes has missed whatever happened in between. The redundancy
// layer (ShardedClient.WatchPrefix) papers over exactly that gap the
// same way redundant reads paper over a slow replica: by holding a
// subscription on every replica and deduplicating.

// EventType classifies a WatchEvent.
type EventType uint8

const (
	// EventPut is a value installed by Set/SetTTL, an applied
	// PutVersion, or a winning CompareAndSwap.
	EventPut EventType = 1
	// EventExpire is a TTL expiry, whether detected by the active
	// sweeper or reaped lazily on access — the only way a key is
	// removed. (2 is kept free for a versioned delete.)
	EventExpire EventType = 3
)

func (t EventType) String() string {
	switch t {
	case EventPut:
		return "put"
	case EventExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// final reports whether the event ends a value's life (an expiry).
// Event identity for cross-replica dedup is (key, version, final): a
// put and the expiry of the same stored version share a version but
// differ in finality.
func (t EventType) final() bool { return t != EventPut }

// WatchEvent is one store mutation as seen by a watcher.
//
// Value is the put's value (nil for an expiry): a copy made for the
// event, not the store's bytes, and shared by every watcher the event
// reaches, so watchers must not mutate it. Version is the stored
// version the event concerns: the new version for a put, the dying
// value's version for an expiry — so the same logical event carries the
// same version on every replica, which is what makes redundant watches
// deduplicable.
type WatchEvent struct {
	Type    EventType
	Key     string
	Value   []byte
	Version uint64
	// TTLSecs is the remaining whole-second TTL of a put (0 = never);
	// always 0 for an expiry.
	TTLSecs uint32
}

// ErrSlowWatcher reports that a watcher was disconnected because its
// event buffer was full when an event arrived. The stream is closed;
// events between the overflow and any resubscription are lost.
var ErrSlowWatcher = errors.New("memkv: watcher too slow, disconnected")

// DefaultWatchBuffer is the per-watcher event buffer when the caller
// asks for none (or a non-positive size).
const DefaultWatchBuffer = 256

// maxWatchBuffer caps what a (possibly remote) caller may request, so a
// hostile opWatch cannot make the server allocate an arbitrarily large
// channel.
const maxWatchBuffer = 1 << 16

// StoreWatch is one registered prefix watcher. Consume Events until it
// closes; Err then reports why (nil after a caller Close, ErrSlowWatcher
// after an overflow disconnect).
type StoreWatch struct {
	reg    *watchRegistry
	id     uint64
	prefix string

	mu     sync.Mutex
	closed bool
	err    error
	ch     chan WatchEvent
}

// Events returns the watcher's event stream. It is closed when the
// watcher ends; Err reports the reason.
func (w *StoreWatch) Events() <-chan WatchEvent { return w.ch }

// Prefix returns the watched key prefix ("" = every key).
func (w *StoreWatch) Prefix() string { return w.prefix }

// Err returns why the stream ended: nil while live or after a caller
// Close, ErrSlowWatcher after an overflow disconnect.
func (w *StoreWatch) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close ends the watch and closes its Events channel (idempotent).
func (w *StoreWatch) Close() { w.closeWith(nil) }

// closeWith ends the watch with the given reason, reporting whether
// this call was the one that closed it. Must not be called while
// holding the registry lock (it unregisters).
func (w *StoreWatch) closeWith(err error) bool {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return false
	}
	w.closed = true
	w.err = err
	close(w.ch)
	w.mu.Unlock()
	w.reg.unregister(w.id)
	return true
}

// send delivers one event without blocking. A full buffer disconnects
// the watcher (slow-consumer policy): the channel is closed under the
// watcher lock — no concurrent send can race the close, because every
// send holds the same lock — and the registry entry is removed
// asynchronously (send runs under the registry read lock).
func (w *StoreWatch) send(ev WatchEvent) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	select {
	case w.ch <- ev:
		w.mu.Unlock()
	default:
		w.closed = true
		w.err = ErrSlowWatcher
		close(w.ch)
		w.mu.Unlock()
		go w.reg.unregister(w.id)
	}
}

// watchRegistry holds a store's watchers. active is the write hot
// path's fast skip: with no watchers registered, notify is one atomic
// load.
type watchRegistry struct {
	active atomic.Bool
	mu     sync.RWMutex
	nextID uint64
	ws     map[uint64]*StoreWatch
	// disconnects counts slow-consumer disconnects, for stats.
	disconnects atomic.Int64
}

func (r *watchRegistry) register(prefix string, buf int) *StoreWatch {
	if buf < 1 {
		buf = DefaultWatchBuffer
	}
	if buf > maxWatchBuffer {
		buf = maxWatchBuffer
	}
	w := &StoreWatch{reg: r, prefix: prefix, ch: make(chan WatchEvent, buf)}
	r.mu.Lock()
	if r.ws == nil {
		r.ws = make(map[uint64]*StoreWatch)
	}
	r.nextID++
	w.id = r.nextID
	r.ws[w.id] = w
	r.active.Store(true)
	r.mu.Unlock()
	return w
}

func (r *watchRegistry) unregister(id uint64) {
	r.mu.Lock()
	if w := r.ws[id]; w != nil {
		delete(r.ws, id)
		if w.Err() == ErrSlowWatcher {
			r.disconnects.Add(1)
		}
	}
	if len(r.ws) == 0 {
		r.active.Store(false)
	}
	r.mu.Unlock()
}

// notify fans one event out to every matching watcher. It is called
// with the mutated key's shard lock held — per-key event order is the
// shard's apply order — so it must never block: sends are buffered and
// overflow disconnects, never waits.
//
// A put's Value arrives as the store's own bytes, which the next write
// of the same length overwrites in place: it is copied once, for the
// first matching watcher, and the copy is what every watcher gets.
func (r *watchRegistry) notify(ev WatchEvent) {
	if !r.active.Load() {
		return
	}
	copied := false
	r.mu.RLock()
	for _, w := range r.ws {
		if strings.HasPrefix(ev.Key, w.prefix) {
			if !copied {
				ev.Value, copied = clone(ev.Value), true
			}
			w.send(ev)
		}
	}
	r.mu.RUnlock()
}

func (r *watchRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ws)
}

// Watch registers a watcher for every key starting with prefix ("" =
// all keys), with a buf-event buffer (non-positive = DefaultWatchBuffer,
// capped at maxWatchBuffer). Events start flowing immediately; there is
// no history replay. A watcher that falls behind its buffer is
// disconnected with ErrSlowWatcher.
func (s *Store) Watch(prefix string, buf int) *StoreWatch {
	return s.watch.register(prefix, buf)
}

// Watchers returns the number of registered watchers.
func (s *Store) Watchers() int { return s.watch.count() }

// WatchDisconnects returns how many watchers were disconnected for
// falling behind (the slow-consumer policy's visible counter).
func (s *Store) WatchDisconnects() int64 { return s.watch.disconnects.Load() }
