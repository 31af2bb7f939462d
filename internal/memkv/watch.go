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
// an eventStream, the same bounded stream a MuxClient's WatchStream is,
// so delivery is a non-blocking send, and a watcher whose buffer is
// full when an event arrives is disconnected on the spot
// (ErrSlowWatcher) rather than allowed to backpressure writers or pin
// unbounded memory. Streams have no history: a watcher sees events
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

// eventStream is the consumer's side of a watch, the same for a store
// watcher and a client's stream: a bounded event channel that never
// blocks its producer and is closed exactly once, with the reason Err
// reports. done closes with it.
type eventStream struct {
	prefix string

	mu     sync.Mutex
	closed bool
	err    error
	ch     chan WatchEvent
	done   chan struct{}
}

// newEventStream returns a live stream of buf events (non-positive =
// DefaultWatchBuffer, capped at maxWatchBuffer).
func newEventStream(prefix string, buf int) eventStream {
	if buf < 1 {
		buf = DefaultWatchBuffer
	}
	buf = min(buf, maxWatchBuffer)
	return eventStream{prefix: prefix, ch: make(chan WatchEvent, buf), done: make(chan struct{})}
}

// Events returns the event channel. It is closed when the stream ends;
// Err reports the reason.
func (s *eventStream) Events() <-chan WatchEvent { return s.ch }

// Prefix returns the watched key prefix ("" = every key).
func (s *eventStream) Prefix() string { return s.prefix }

// Err returns why the stream ended: nil while live or after a caller
// Close, ErrSlowWatcher after an overflow disconnect; the watch type's
// doc lists any other reasons.
func (s *eventStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// end closes the stream with err, reporting whether this call was the
// one that closed it.
func (s *eventStream) end(err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.endLocked(err)
}

func (s *eventStream) endLocked(err error) bool {
	if s.closed {
		return false
	}
	s.closed = true
	s.err = err
	close(s.ch)
	close(s.done)
	return true
}

// offer delivers one event without blocking. A full buffer ends the
// stream with ErrSlowWatcher (the slow-consumer policy), and offer
// reports true: the caller then releases the stream's subscription. The
// channel is closed under the stream's lock, which every offer holds, so
// no send can race the close.
func (s *eventStream) offer(ev WatchEvent) (shed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	select {
	case s.ch <- ev:
		return false
	default:
		return s.endLocked(ErrSlowWatcher)
	}
}

// StoreWatch is one registered prefix watcher. Consume Events until it
// closes; Err then reports why (nil after a caller Close, ErrSlowWatcher
// after an overflow disconnect).
type StoreWatch struct {
	eventStream
	reg *watchRegistry
	id  uint64
}

// Close ends the watch and closes its Events channel (idempotent).
func (w *StoreWatch) Close() { w.closeWith(nil) }

// closeWith ends the watch with the given reason and unregisters it.
// Must not be called while holding the registry lock.
func (w *StoreWatch) closeWith(err error) {
	if w.end(err) {
		w.reg.unregister(w.id)
	}
}

// send is the registry's delivery of one event. It runs under the
// registry read lock, so a watcher it sheds is unregistered
// asynchronously.
func (w *StoreWatch) send(ev WatchEvent) {
	if w.offer(ev) {
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
	w := &StoreWatch{eventStream: newEventStream(prefix, buf), reg: r}
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
