// Package memkv implements a small in-memory key-value store, a TCP
// server for it, and its clients: MuxClient multiplexes requests to one
// server over a tagged binary frame protocol (wire.go), and
// ShardedClient places keys on a consistent-hash ring of MuxClients and
// reads them redundantly through the redundancy core.
//
// It serves two purposes in the reproduction:
//
//   - It is the live-system counterpart of the §2.3 memcached experiment:
//     the examples run real replicated reads against memkv servers over
//     TCP and show exactly the effect the paper measured (sub-millisecond
//     service times leave little room for redundancy to help, unless a
//     server stalls).
//   - Its Server.Delay hook lets tests and examples inject controlled
//     latency spikes to demonstrate when redundancy DOES pay off.
package memkv

import (
	"bufio"
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	maxKeyLen   = 250
	maxValueLen = 8 << 20 // 8 MB, as memcached's default item limit order
	// maxScanLimit caps the entries one opScan request may ask for; the
	// per-page byte cap (scanMaxBytes) usually binds first.
	maxScanLimit = 4096
)

// Store is a sharded in-memory key-value map, safe for concurrent use.
//
// Every stored value carries a monotonically increasing version (the
// kvdb "ModifiedIndex" idiom). A write takes the caller's version
// (PutVersion), a fresh one from the store's clock (Set, SetTTL), or a
// fresh one if the stored version is the expected one
// (CompareAndSwap); the first two apply only when strictly newer than
// what the store holds — last-writer-wins by version. Versions are what make redundant reads self-healing: a
// quorum read that observes two replicas at different versions knows
// which copy is stale and exactly what to push back.
type Store struct {
	// clock is the store's version source. It is advanced past every
	// version the store witnesses (local or replicated), so a local
	// write always produces a version newer than anything stored.
	clock  versionClock
	shards [shardCount]shard
	// watch fans mutations out to registered prefix watchers (watch.go).
	// Zero-valued and dormant until the first Watch call.
	watch watchRegistry
}

const shardCount = 32

type shard struct {
	mu sync.RWMutex
	m  map[string]item
	// ttl holds the deadline of every TTL'd write to the shard; its fire
	// expires the items still at the written version (expireDue).
	ttl deadlineQueue[expiry]
}

// expiry is a TTL deadline's entry: the key and the version written.
type expiry struct {
	key string
	ver uint64
}

type item struct {
	// key is the map key this item is stored under, kept where a lookup
	// by bytes can reach it: a write to a present key is stored under the
	// string the store already holds instead of making another (install,
	// keyString).
	key     string
	flags   uint32
	version uint64
	// data is the value, in an exact-length slice the store owns: a
	// write of the same length overwrites it in place, so it is read only
	// under the shard's lock (view).
	data []byte
	// expiresAt is when the item expires, zero for never. The shard's
	// ttl queue deletes it then and emits an expire watch event, so
	// expired-but-never-read items stop pinning memory; lazy
	// reap-on-access is the backstop for the window between the deadline
	// and the queue's fire taking the shard's lock.
	expiresAt time.Time
}

// expireDue is sh's TTL timer function: it reaps every item whose
// deadline (its expiresAt) has passed, if still at the version written
// with it — a deadline outliving its item's overwrite reaps nothing —,
// emits its expire event, and re-arms for the next deadline.
func (s *Store) expireDue(sh *shard) {
	sh.mu.Lock()
	now := time.Now()
	for {
		x, ok := sh.ttl.popDue(now)
		if !ok {
			break
		}
		if sh.expiring(x) {
			delete(sh.m, x.key)
			s.watch.notify(WatchEvent{Type: EventExpire, Key: x.key, Version: x.ver})
		}
	}
	sh.ttl.rearm()
	sh.mu.Unlock()
}

// expiring reports whether x is still the deadline of its item. Called
// with sh.mu held.
func (sh *shard) expiring(x expiry) bool {
	it, ok := sh.m[x.key]
	return ok && it.version == x.ver && !it.expiresAt.IsZero()
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.m = make(map[string]item)
		sh.ttl.fire = func() { s.expireDue(sh) }
	}
	return s
}

// Close stops the store's expiry timers, whose pending deadlines would
// otherwise keep the store reachable until they fire. The items it holds
// then expire only lazily, as a read finds them past their deadline; a
// later write with a TTL arms its shard's timer again.
func (s *Store) Close() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.ttl.close()
		sh.mu.Unlock()
	}
}

func (s *Store) shardFor(key string) *shard { return shardOf(s, key) }

// shardOf is shardFor over either spelling of a key: the server's
// lookups and writes look a key up as the bytes the connection's reader
// holds, without making a string of them (see view and putVersion).
func shardOf[K string | []byte](s *Store, key K) *shard {
	// FNV-1a inlined over the key: the hash.Hash32 form
	// (fnv.New32a + io.WriteString) heap-allocates the hash state on
	// every lookup because it escapes through the interface.
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &s.shards[h%shardCount]
}

// keyString returns key as a string for a write to keep past the
// connection reader's window (a parked write): the one the store already
// holds when the key is present (expired or not), and a new string
// otherwise. The key may be gone again by the time the write lands; the
// string is good either way. m[string(key)] on a byte-slice key is the
// one conversion the compiler performs without allocating.
func (s *Store) keyString(key []byte) string {
	sh := shardOf(s, key)
	sh.mu.RLock()
	it, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	if ok {
		return it.key
	}
	return string(key)
}

// liveVersion is the version a write is checked against: cur's if the
// key is present and unexpired, 0 (absent) otherwise.
func liveVersion(cur item, present bool) uint64 {
	if !present || (!cur.expiresAt.IsZero() && time.Now().After(cur.expiresAt)) {
		return 0
	}
	return cur.version
}

// clone returns an exact-length copy of b, nil when b is empty. It makes
// the slice rather than appending to nil, which would round the capacity
// up to the allocator's size class.
func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// versionClock is the Lamport clock behind every version a store or a
// ShardedClient mints. Fresh versions are floored at the wall clock in
// nanoseconds, which keeps versions from independent stores and clients
// roughly comparable — the LWW tiebreak of replicated writes stays sane
// even when two writers never read each other.
type versionClock struct{ last atomic.Uint64 }

// next returns a fresh version: strictly greater than every version the
// clock has minted or witnessed, and at least the wall clock.
func (c *versionClock) next() uint64 {
	for {
		last := c.last.Load()
		v := max(uint64(time.Now().UnixNano()), last+1)
		if c.last.CompareAndSwap(last, v) {
			return v
		}
	}
}

// witness advances the clock to at least v, so versions minted after a
// write or read at v are strictly newer: the Lamport receive rule.
func (c *versionClock) witness(v uint64) {
	for {
		last := c.last.Load()
		if last >= v || c.last.CompareAndSwap(last, v) {
			return
		}
	}
}

// Set stores value under key with opaque flags and no expiry.
func (s *Store) Set(key string, flags uint32, value []byte) {
	s.SetTTL(key, flags, value, 0)
}

// SetTTL stores value under key, expiring after ttl (0 = never). Expiry
// is active — the shard's TTL timer reaps the item at its deadline and
// notifies watchers — with lazy reap-on-access as the backstop. The
// write is a PutVersion at a fresh version from the store's clock, so
// it loses to a newer version that lands between minting and the
// write: a key's version never moves backwards.
func (s *Store) SetTTL(key string, flags uint32, value []byte, ttl time.Duration) {
	putVersion(s, key, flags, value, ttl, s.clock.next(), false)
}

// PutVersion applies a replicated write carrying an explicit version: the
// value is stored only if version is strictly newer than the stored
// version (or the key is absent) — last-writer-wins, so replaying a hint
// or pushing a repair can never clobber data a replica learned later. It
// returns the version now current for the key and whether this write
// applied. Version 0 never applies: it is what a create-only
// CompareAndSwap expects of an absent key. The store's clock is advanced
// past version either way.
func (s *Store) PutVersion(key string, flags uint32, value []byte, ttl time.Duration, version uint64) (current uint64, applied bool) {
	return putVersion(s, key, flags, value, ttl, version, false)
}

// putVersion is PutVersion's body over either spelling of the key: the
// server runs a write on the key bytes in its reader's window, and makes
// a string of them only for a key the store does not hold yet. owned
// means the caller gives value away: unless it overwrites a value of the
// same length in place, the store keeps the slice itself instead of a
// copy — the server's frame loop read it off the wire at its exact
// length for nobody else (the one ownership hand-off on the write path).
func putVersion[K string | []byte](s *Store, key K, flags uint32, value []byte, ttl time.Duration, version uint64, owned bool) (current uint64, applied bool) {
	s.clock.witness(version)
	sh := shardOf(s, key)
	sh.mu.Lock()
	cur, present := sh.m[string(key)]
	// held >= version also refuses version 0 for an absent key.
	if held := liveVersion(cur, present); held >= version {
		sh.mu.Unlock()
		return held, false
	}
	install(s, sh, cur, present, key, flags, value, ttl, version, owned)
	sh.mu.Unlock()
	return version, true
}

// install is the store's one write body, run under sh's lock once the
// caller has chosen version. cur is the item stored under key, expired
// or not, if present. install stores value: into cur's bytes when their
// lengths match — the store reuses what it holds, so an overwrite
// allocates nothing — else the slice itself if owned, else an
// exact-length copy. It then queues the new expiry, if any, and
// notifies watchers; cur's expiry, if any, is left to find a newer
// version. The key string is cur's when present, so that only a new
// key makes one.
func install[K string | []byte](s *Store, sh *shard, cur item, present bool, key K, flags uint32, value []byte, ttl time.Duration, version uint64, owned bool) {
	switch {
	case present && len(cur.data) == len(value):
		copy(cur.data, value)
		value = cur.data
	case !owned:
		value = clone(value)
	}
	k := cur.key
	if !present {
		k = string(key)
	}
	it := item{key: k, flags: flags, version: version, data: value}
	if ttl > 0 {
		it.expiresAt = time.Now().Add(ttl)
	}
	sh.m[k] = it
	if ttl > 0 {
		sh.ttl.push(it.expiresAt, expiry{key: k, ver: version})
		sh.ttl.prune(len(sh.m), sh.expiring)
	}
	s.watch.notify(WatchEvent{Type: EventPut, Key: k, Value: it.data, Version: version, TTLSecs: ttlSeconds(ttl)})
}

// CompareAndSwap stores value under key only if the stored version
// equals expect — expect 0 means "create if absent" (an expired key
// counts as absent). On success it mints and returns a
// fresh version with applied true; on conflict it returns the version
// currently held (0 if absent) with applied false. The conditional is
// atomic under the key's shard lock, so of N racing writers carrying
// the same expect exactly one wins; the rest observe the winner's
// version and can retry from it.
func (s *Store) CompareAndSwap(key string, flags uint32, value []byte, ttl time.Duration, expect uint64) (current uint64, applied bool) {
	return compareAndSwap(s, key, flags, value, ttl, expect, false)
}

// compareAndSwap is CompareAndSwap's body; key and owned as for
// putVersion.
func compareAndSwap[K string | []byte](s *Store, key K, flags uint32, value []byte, ttl time.Duration, expect uint64, owned bool) (current uint64, applied bool) {
	sh := shardOf(s, key)
	sh.mu.Lock()
	cur, present := sh.m[string(key)]
	if held := liveVersion(cur, present); held != expect {
		sh.mu.Unlock()
		return held, false
	}
	ver := s.clock.next()
	install(s, sh, cur, present, key, flags, value, ttl, ver, owned)
	sh.mu.Unlock()
	return ver, true
}

// GetVersion is Get plus the stored version and the remaining TTL in
// whole seconds, floored (0 = no expiry) — the read-side surface
// replica convergence needs: a repair or migration push preserves both
// the version and the expiry of what it copies.
//
// The floor matters: this value is re-applied relative-to-now at every
// repair, hint-replay, and migration hop, so rounding it UP (as this
// function once did, with a 1s minimum) let each hop extend the key's
// life — a key bouncing through repair often enough never expired.
// Flooring makes every hop shrink the remaining TTL or keep it, never
// grow it; the last sub-second of a key's life is forfeited instead
// (an item with <1s remaining reads as absent — the sweeper, not this
// read, reaps it at the true deadline).
//
// The value is the caller's own copy.
func (s *Store) GetVersion(key string) (value []byte, flags uint32, version uint64, ttlSecs uint32, ok bool) {
	sh, it, left, ok := view(s, key)
	if !ok {
		return nil, 0, 0, 0, false
	}
	if left > 0 && left < time.Second {
		// Not reaped: the sweeper owns the true deadline.
		sh.mu.RUnlock()
		return nil, 0, 0, 0, false
	}
	value = clone(it.data)
	sh.mu.RUnlock()
	return value, it.flags, it.version, uint32(left / time.Second), true
}

// view finds key's item for a reader. When the item is live, view
// returns with sh's read lock held, and the time the item has left (0
// for one that never expires): the caller copies out what it needs —
// the data above all, which the next write of the same length
// overwrites in place — and then calls sh.mu.RUnlock. Otherwise the lock
// is released, and an item past its deadline has been reaped.
//
// The server calls view with the key bytes as they lie in the
// connection reader's window; a string is made of them only to reap.
func view[K string | []byte](s *Store, key K) (sh *shard, it item, left time.Duration, ok bool) {
	sh = shardOf(s, key)
	sh.mu.RLock()
	if it, ok = sh.m[string(key)]; !ok {
		sh.mu.RUnlock()
		return nil, item{}, 0, false
	}
	if !it.expiresAt.IsZero() {
		if left = time.Until(it.expiresAt); left <= 0 {
			sh.mu.RUnlock()
			s.reapExpired(string(key))
			return nil, item{}, 0, false
		}
	}
	return sh, it, left, true
}

// reapExpired removes key if it is (still) past its deadline, emitting
// the expire watch event — the lazy-expiry backstop shared by the read
// paths. Re-checks under the write lock: the item may have been
// replaced with a fresh value since the caller's read.
func (s *Store) reapExpired(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if cur, still := sh.m[key]; still && !cur.expiresAt.IsZero() && time.Now().After(cur.expiresAt) {
		delete(sh.m, key)
		s.watch.notify(WatchEvent{Type: EventExpire, Key: key, Version: cur.version})
	}
	sh.mu.Unlock()
}

// ScanEntry is one key's snapshot in a Scan page.
type ScanEntry struct {
	Key     string
	Flags   uint32
	Version uint64
	// TTLSecs is the remaining TTL in whole seconds (0 = no expiry).
	TTLSecs uint32
	Value   []byte
}

// scanMaxBytes caps the value bytes packed into one scan page, so a page
// of large values cannot balloon toward the frame size limit.
const scanMaxBytes = 1 << 20

// Scan returns up to limit live entries with keys strictly greater than
// after, in ascending key order, and whether more remain. It is the
// anti-entropy enumeration primitive: a migrator pages through a shard's
// keyspace with a resumable cursor (the last key of the previous page)
// while writes proceed. A page also ends early once its values exceed
// scanMaxBytes (always returning at least one entry). Entries are
// point-in-time per key, not a consistent snapshot of the store, and
// their values are the caller's own copies.
//
// The sweep is bounded: a size-limit max-heap keeps only the limit
// smallest candidate keys, so a page allocates O(limit) and compares
// O(n) — not the copy-every-key-and-sort O(n log n) per page that made
// a full enumeration of a large store quadratic.
func (s *Store) Scan(after string, limit int) (entries []ScanEntry, more bool) {
	if limit < 1 {
		limit = 1
	}
	for {
		keys, overflow := s.scanKeys(after, limit)
		if len(keys) == 0 {
			return entries, false
		}
		bytes := 0
		for _, k := range keys {
			val, flags, ver, ttl, ok := s.GetVersion(k)
			if !ok {
				continue // expired since the key sweep
			}
			if len(entries) > 0 && bytes+len(val) > scanMaxBytes {
				return entries, true
			}
			entries = append(entries, ScanEntry{Key: k, Flags: flags, Version: ver, TTLSecs: ttl, Value: val})
			bytes += len(val)
		}
		if len(entries) > 0 {
			return entries, overflow
		}
		// Every selected key died between sweep and fetch. Cursor loops
		// treat an empty page as end-of-keyspace, so an empty page with
		// more=true must never escape: advance the cursor past the dead
		// keys and re-sweep.
		if !overflow {
			return nil, false
		}
		after = keys[len(keys)-1]
	}
}

// scanKeys collects the limit smallest keys strictly greater than after
// across every shard, returning them in ascending order plus whether
// any candidate was left out (more pages exist). It maintains a bounded
// max-heap: a candidate either displaces the current largest kept key
// or is discarded, so cost is O(n) comparisons and O(limit) space per
// page regardless of store size.
func (s *Store) scanKeys(after string, limit int) (keys []string, overflow bool) {
	h := make([]string, 0, limit)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			if k <= after {
				continue
			}
			if len(h) < limit {
				h = append(h, k)
				scanHeapUp(h, len(h)-1)
			} else if k < h[0] {
				overflow = true
				h[0] = k
				scanHeapDown(h)
			} else {
				overflow = true
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(h)
	return h, overflow
}

// scanHeapUp restores the max-heap property after appending at i.
func scanHeapUp(h []string, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// scanHeapDown restores the max-heap property after replacing the root.
func scanHeapDown(h []string) {
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && h[r] > h[l] {
			big = r
		}
		if h[big] <= h[i] {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Get returns the value and flags for key; the value is the caller's own
// copy. Expired items are absent (and reaped on the way).
func (s *Store) Get(key string) (value []byte, flags uint32, ok bool) {
	sh, it, _, ok := view(s, key)
	if !ok {
		return nil, 0, false
	}
	value = clone(it.data)
	sh.mu.RUnlock()
	return value, it.flags, true
}

// Len returns the total number of stored keys.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].m)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// Server serves a Store over TCP, speaking the frame protocol of wire.go.
type Server struct {
	// Delay, if non-nil, is called once per request and its return value
	// is slept before responding — a hook for injecting service-time
	// distributions in tests and demos. Set it before Listen: connection
	// handlers read it without synchronization.
	Delay func() time.Duration

	store *Store
	ln    net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Protocol counters, exposed by Stats and the opStats request.
	cmdGet    atomic.Int64
	cmdSet    atomic.Int64
	cmdScan   atomic.Int64
	getHits   atomic.Int64
	getMisses atomic.Int64
	// stalePuts counts versioned puts that did not apply because the
	// store already held a newer version — replayed hints and
	// anti-entropy pushes that lost the last-writer-wins race. A healthy
	// converged system shows a few of these after every repair storm;
	// a growing count under steady state means writers are clobbering
	// each other.
	stalePuts atomic.Int64
	// aborted counts delayed requests dropped because their connection
	// closed while they were parked: the server does not answer a client
	// that is gone.
	aborted atomic.Int64
	// accepted counts connections accepted over the server's lifetime.
	accepted atomic.Int64
}

// AcceptedConns returns the total number of connections the server has
// accepted since Listen.
func (s *Server) AcceptedConns() int64 { return s.accepted.Load() }

// Stats snapshots the server's counters by name — what the opStats
// request returns to MuxClient.Stats.
func (s *Server) Stats() map[string]int64 {
	return map[string]int64{
		"cmd_get":           s.cmdGet.Load(),
		"cmd_set":           s.cmdSet.Load(),
		"cmd_scan":          s.cmdScan.Load(),
		"get_hits":          s.getHits.Load(),
		"get_misses":        s.getMisses.Load(),
		"curr_items":        int64(s.store.Len()),
		"aborted_ops":       s.aborted.Load(),
		"stale_puts":        s.stalePuts.Load(),
		"watchers":          int64(s.store.Watchers()),
		"watch_disconnects": s.store.WatchDisconnects(),
	}
}

// NewServer creates a server around the given store (a fresh one if nil).
// The server owns its store: Close closes it.
func NewServer(store *Store) *Server {
	if store == nil {
		store = NewStore()
	}
	return &Server{store: store, conns: make(map[net.Conn]struct{})}
}

// Store returns the server's backing store.
func (s *Server) Store() *Store { return s.store }

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts serving
// in background goroutines. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("memkv: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	backoff := 5 * time.Millisecond
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Out of file descriptors. Back off and keep accepting:
			// connections in flight will close and free fds; dying here
			// would wedge the listener forever.
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) {
				time.Sleep(backoff)
				if backoff < time.Second {
					backoff *= 2
				}
				continue
			}
			return // listener closed
		}
		backoff = 5 * time.Millisecond
		s.accepted.Add(1)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every open connection, waits for
// handlers to finish, and closes the server's store (Store.Close).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	s.store.Close()
	return err
}

// serveConn checks the connection's first byte and runs the frame loop
// (server_mux.go). Every frame op has the high bit set; a peer that
// opens with anything else — a text-protocol client, a stray probe — is
// closed at once with no reply, because readFrame would otherwise wait
// for a 19-byte header that a short line never completes.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	if first, err := r.Peek(1); err != nil || first[0] < 0x80 {
		return
	}
	s.serveMux(conn, r)
}
