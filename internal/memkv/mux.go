package memkv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/core"
)

// ErrMuxConnLost reports that a multiplexed connection died with
// requests in flight: every pending request on it fails with an error
// wrapping this sentinel (match with errors.Is). The next request
// redials transparently.
var ErrMuxConnLost = errors.New("memkv: mux connection lost")

// ErrMuxTimeout reports that a multiplexed request exceeded the
// client's per-request timeout. A timed-out request just gives up its
// tag; the connection and every other in-flight request on it are
// unharmed.
var ErrMuxTimeout = errors.New("memkv: mux request timeout")

// MuxClient is the memkv client for one server: one connection over
// which any number of concurrent requests interleave. Its concurrency
// ceiling is memory, not file descriptors: each in-flight request is one
// map entry (and, for a blocking call, one pooled waiter), so tens of
// thousands of outstanding redundant reads share one socket.
//
//   - Every request is registered the same way (registerLocked): a tag,
//     an entry in the connection's waiter table, and its deadline in the
//     connection's timeout queue (deadlineQueue, one timer per
//     connection), all under the connection's lock.
//   - Every request completes the same way: whoever claims its tag — the
//     reader with the reply, the timeout queue's fire, or fail when the
//     connection dies — completes it exactly once, and a caller that
//     withdraws it first (claims it itself) gets nothing. A blocking
//     call's waiter is completed like a started request's sink. Claiming
//     a tag stops no timer: the fire finds an answered tag gone.
//   - Writes coalesce: requests append frames to the connection's
//     wireConn, whose single flusher goroutine writes whatever
//     accumulated while the previous write was in flight — group commit,
//     one syscall for many requests under load. The server answers
//     through the same writer.
//   - Reads demux: a reader goroutine routes each response frame to its
//     tag's waiter. Responses may arrive in any order; slow requests
//     don't head-of-line-block fast ones.
//   - Cancellation is free: a cancelled request unregisters its tag and
//     moves on — the connection survives, and when the response arrives
//     the reader, finding nobody registered for its tag, skips the value
//     bytes without decoding or allocating them. The request itself is
//     not recalled: once written it is served and answered.
//   - Reads need no goroutine: Start enqueues a read and returns, and
//     the reader hands the reply straight to the caller's sink (MuxClient
//     is a core.Starter). ShardedClient launches the copies of a
//     redundant read this way; GetV stays the blocking form of the same
//     request (opGetV, the one read), and Get is GetV without the
//     version.
//   - The loser of a redundant read costs neither a reconnect nor an
//     allocation, whichever side of its reply the call is decided on.
//     Cancelled before the reply arrives, its tag is gone and the reply
//     is skipped as above. Decided before the reply is decoded — the
//     winner's reader settled the call, the caller's goroutine has not
//     run yet to cancel — the reader claims the tag, asks the sink
//     (core.Sink.Drop), and skips the value the same way, completing the
//     copy without it. What is left is two replies being completed in
//     the same instant by two readers, neither seeing the other's: then
//     the loser's value is decoded, and the engine's report of that copy
//     carries it to the read group's per-copy hook, which gives its
//     buffer back to the pool (ShardedClient's discardRead) for the next
//     read to land in.
//   - Neither do versioned writes: StartPutV is to PutV what Start is to
//     GetV. It encodes the put straight into the pending buffer — no
//     payload slice, no waiter — and the reader decodes the fixed-size
//     reply where it lies in its buffer. It is the Start of
//     ShardedClient's write group (putStarter), which launches every copy
//     of a PutVersioned this way, so a write costs this client no
//     allocation and no goroutine however long its stragglers take.
//
// A MuxClient is safe for concurrent use and is the production
// implementation of Backend, the shard surface ShardedClient routes over.
type MuxClient struct {
	addr    string
	timeout time.Duration

	cn atomic.Pointer[muxConn] // the connection; nil until first dialed

	mu sync.Mutex // serializes dialing, redial state, and Close
	// redialing marks a connection whose reconnection the background
	// redialer owns: after a connection breaks, the redialer retries with
	// jittered exponential backoff until it succeeds, so the client heals
	// itself even if no caller ever retries. While it is redialing,
	// requests fail fast (wrapping ErrMuxConnLost with the last dial
	// error) instead of piling a dial storm on a dead server.
	redialing   bool
	lastDialErr error
	closed      bool
	closedC     chan struct{}
}

// NewMuxClient creates a multiplexed client for the server at addr.
// timeout bounds each request from enqueue to response (0 means no
// timeout); it is enforced by the connection's one timeout timer,
// which allocates nothing per request. The connection is dialed lazily.
func NewMuxClient(addr string, timeout time.Duration) *MuxClient {
	return &MuxClient{addr: addr, timeout: timeout, closedC: make(chan struct{})}
}

// Addr returns the server address this client targets.
func (m *MuxClient) Addr() string { return m.addr }

// muxConn is one multiplexed connection: the wireConn every request is
// written through, and a reader goroutine demuxing response frames to
// tag waiters.
type muxConn struct {
	// wireConn's mu also guards the fields below.
	wireConn
	// owner is the client this connection serves, so fail can hand the
	// reconnection to its background redialer. It is nil in tests that
	// build bare conns.
	owner *MuxClient

	tag     uint64
	waiters map[uint64]muxEntry
	// timeouts holds each registered tag's deadline; its fire fails the
	// tags still waiting (timeoutsDue).
	timeouts deadlineQueue[uint64]
	// watches routes server-push frames (opEvent/opWatchEnd) by the
	// owning watch's tag — the streaming sibling of waiters. Lazily
	// allocated on the first Watch.
	watches map[uint64]*WatchStream
	dead    bool
	err     error
}

// muxEntry is one in-flight request's place in the waiter table. It is
// one of three things: a blocking call's pooled channel waiter (w; wait
// blocks on it), a started read (sink), or a started versioned put
// (put) — the started forms with their slot. Whoever claims the entry
// completes it once, through complete or fail, whichever of the three
// it is.
//
// The table stores entries by value: keep this struct well under 128
// bytes, the size past which a Go map boxes its elements and every
// insert allocates (pinned by TestMuxEntryFitsMapSlot).
type muxEntry struct {
	w    *muxWaiter
	sink core.Sink[Versioned]
	put  core.Sink[PutVResult]
	slot int
}

// complete completes the request with its reply f, whose value has been
// read.
func (e *muxEntry) complete(f *frame) {
	switch {
	case e.w != nil:
		e.w.ch <- muxReply{f: *f}
	case e.put != nil:
		cur, applied, err := frameToWrite(f, opStoredV)
		e.put.Complete(e.slot, PutVResult{Current: cur, Applied: applied, Err: err}, err)
	default:
		v, err := frameToGetV(f)
		e.sink.Complete(e.slot, v, err)
	}
}

// fail completes the request with err instead of a reply.
func (e *muxEntry) fail(err error) {
	switch {
	case e.w != nil:
		e.w.ch <- muxReply{err: err}
	case e.put != nil:
		e.put.Complete(e.slot, PutVResult{Err: err}, err)
	default:
		e.sink.Complete(e.slot, Versioned{}, err)
	}
}

// muxWaiter is one blocking request's rendezvous. The channel has
// capacity 1 and receives exactly one completion, from whoever claimed
// the request's tag, so deliveries never block. Waiters recycle through
// a pool, returned only once that completion has been taken (or, the
// caller having claimed the tag itself, will never come).
type muxWaiter struct {
	ch chan muxReply
}

// muxReply is a blocking request's completion: its reply, or the error
// it failed with.
type muxReply struct {
	f   frame
	err error
}

var muxWaiterPool = sync.Pool{
	New: func() any { return &muxWaiter{ch: make(chan muxReply, 1)} },
}

func (m *MuxClient) dial(ctx context.Context) (*muxConn, error) {
	d := net.Dialer{Timeout: m.timeout}
	c, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, err
	}
	cn := &muxConn{wireConn: newWireConn(c), owner: m, waiters: make(map[uint64]muxEntry)}
	cn.timeouts.fire = cn.timeoutsDue
	go cn.reader()
	go cn.flusher(cn.fail)
	return cn, nil
}

// conn returns the live connection. One that was never dialed is dialed
// lazily and synchronously; one that broke belongs to the background
// redialer, and requests fail fast until it reconnects.
func (m *MuxClient) conn(ctx context.Context) (*muxConn, error) {
	if cn := m.cn.Load(); cn != nil && !cn.isDead() {
		return cn, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("memkv: mux client closed")
	}
	if cn := m.cn.Load(); cn != nil && !cn.isDead() {
		return cn, nil
	}
	if m.redialing {
		if m.lastDialErr == nil {
			// The redialer has not finished a failed attempt yet; the
			// break itself is the freshest information.
			return nil, ErrMuxConnLost
		}
		return nil, fmt.Errorf("%w (redialing: %v)", ErrMuxConnLost, m.lastDialErr)
	}
	cn, err := m.dial(ctx)
	if err != nil {
		if ctx.Err() != nil {
			// The caller gave up mid-dial (a losing copy, cancelled when
			// its sibling won): that says nothing about the server. The
			// client stays undialed and the next request dials again.
			return nil, err
		}
		// The synchronous dial failed: the server is unreachable, not
		// just this connection. Hand the reconnection to the backoff
		// redialer so the client heals itself without a caller-driven
		// dial storm.
		m.startRedialLocked(err)
		return nil, err
	}
	m.cn.Store(cn)
	return cn, nil
}

// connLost is called by muxConn.fail when an established connection
// breaks: the reconnection moves to the background redialer.
func (m *MuxClient) connLost() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.redialing {
		return
	}
	m.startRedialLocked(nil)
}

// startRedialLocked marks the client as redialing and spawns the redial
// goroutine. The caller holds m.mu.
func (m *MuxClient) startRedialLocked(lastErr error) {
	m.redialing = true
	m.lastDialErr = lastErr
	go m.redialLoop()
}

// Redial backoff bounds: the first attempt is immediate (a broken
// connection to a live server should recover in one round trip), then
// attempts back off exponentially with jitter up to the cap.
const (
	muxRedialBase = 10 * time.Millisecond
	muxRedialMax  = 2 * time.Second
)

// sleepBackoff sleeps a jittered delay in [d/2, d), so clients that
// broke together don't retry in lockstep, and returns the next delay: d
// doubled, up to muxRedialMax. ok is false if stop closed first.
func sleepBackoff(d time.Duration, stop <-chan struct{}) (next time.Duration, ok bool) {
	select {
	case <-time.After(d/2 + time.Duration(rand.Int63n(int64(d/2)))):
	case <-stop:
		return d, false
	}
	if d < muxRedialMax {
		d *= 2
	}
	return d, true
}

// redialLoop reconnects with jittered exponential backoff, storing the
// fresh connection when it succeeds. It exits when the client closes.
func (m *MuxClient) redialLoop() {
	backoff := muxRedialBase
	for {
		cn, err := m.dial(context.Background())
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			if cn != nil {
				cn.fail(errors.New("client closed"))
			}
			return
		}
		if err == nil {
			m.cn.Store(cn)
			m.redialing = false
			m.lastDialErr = nil
			m.mu.Unlock()
			return
		}
		m.lastDialErr = err
		m.mu.Unlock()
		var ok bool
		if backoff, ok = sleepBackoff(backoff, m.closedC); !ok {
			return
		}
	}
}

// Close closes the connection. Requests in flight fail with
// ErrMuxConnLost; subsequent requests fail immediately. The background
// redialer exits.
func (m *MuxClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	close(m.closedC)
	m.mu.Unlock()
	if cn := m.cn.Load(); cn != nil {
		cn.fail(errors.New("client closed"))
	}
	return nil
}

func (cn *muxConn) isDead() bool {
	select {
	case <-cn.done:
		return true
	default:
		return false
	}
}

// lostErr returns the connection's terminal error (after done closed).
func (cn *muxConn) lostErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return cn.err
	}
	return ErrMuxConnLost
}

// fail marks the connection dead exactly once: it claims every pending
// request and completes it with the conn-lost error, stops the timeout
// timer, and closes the socket, which also stops the reader and
// flusher.
func (cn *muxConn) fail(cause error) {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	cn.err = fmt.Errorf("%w: %v", ErrMuxConnLost, cause)
	pending := cn.waiters
	cn.waiters = nil
	ws := cn.watches
	cn.watches = nil
	cn.timeouts.close()
	cn.mu.Unlock()
	close(cn.done)
	cn.c.Close()
	for _, e := range pending {
		e.fail(cn.err)
	}
	for _, st := range ws {
		// Streams on a dead connection end with the conn-lost error so
		// their consumers know to resubscribe (events in the gap are
		// gone; the redundant sharded watch covers it).
		st.end(cn.err)
	}
	if cn.owner != nil {
		// Hand the reconnection to the background redialer immediately
		// rather than waiting for the next request to trip over the dead
		// conn.
		cn.owner.connLost()
	}
}

// lockLive takes cn.mu if the connection is alive. On a dead one it
// returns the connection's error and leaves the lock free.
func (cn *muxConn) lockLive() error {
	cn.mu.Lock()
	if cn.dead {
		err := cn.err
		cn.mu.Unlock()
		return err
	}
	return nil
}

// registerLocked is the one registration of every request the client
// sends: a blocking call's waiter, a started read, a started put, and
// each put of a PutVBatch. It assigns the next tag, stores e under it
// and queues the tag's deadline (none if timeout is 0), pruning the
// deadlines of tags already answered once they outgrow the waiting
// ones (deadlineQueue.prune). The
// caller holds cn.mu on a live connection (lockLive), appends the
// request's frame to cn.pending, unlocks, and signals the flusher.
// (A watch's opUnwatch is the one frame sent unregistered: nobody waits
// for its ack.)
func (cn *muxConn) registerLocked(e muxEntry, timeout time.Duration) uint64 {
	cn.tag++
	cn.waiters[cn.tag] = e
	if timeout > 0 {
		cn.timeouts.push(time.Now().Add(timeout), cn.tag)
		cn.timeouts.prune(len(cn.waiters), func(tag uint64) bool {
			_, waiting := cn.waiters[tag]
			return waiting
		})
	}
	return cn.tag
}

// reader demuxes response frames to whoever registered their tag.
func (cn *muxConn) reader() {
	r := bufio.NewReaderSize(cn.c, 64<<10)
	for {
		if err := cn.readOne(r); err != nil {
			cn.fail(err)
			return
		}
	}
}

// readOne reads one frame and routes it: a response to its tag's waiter
// or sink, a server-push frame (opEvent/opWatchEnd) to its tag's watch
// stream. The header is read first and the tag claimed before the
// value: a frame nobody is registered for was cancelled or timed out
// after the request went out, and its value is skipped in the buffer
// rather than allocated and copied — the connection lives on. So is a
// hit for a started read whose call is already settled, which the sink
// completes without the value (core.Sink.Drop). A versioned payload —
// a read's, a write's, a watch event's — has its header decoded where it
// lies (readReplyValue), so a write's reply allocates nothing and a
// read's only its value. A non-nil error is fatal to the connection.
func (cn *muxConn) readOne(r *bufio.Reader) error {
	var f frame
	vlen, err := readFrameHead(r, &f)
	if err != nil {
		return err
	}
	if f.op == opEvent || f.op == opWatchEnd {
		if err := readReplyValue(r, &f, vlen); err != nil {
			return err
		}
		cn.mu.Lock()
		st := cn.watches[f.tag]
		if st != nil && f.op == opWatchEnd {
			// The terminal frame: nothing more arrives on this tag.
			delete(cn.watches, f.tag)
		}
		cn.mu.Unlock()
		if st != nil {
			st.deliver(&f) // non-blocking by contract
		}
		return nil
	}
	e, ok := cn.claim(f.tag)
	if !ok {
		_, err := r.Discard(vlen)
		return err
	}
	if e.sink != nil && f.op == opValueV && vlen >= verPayloadHeader && e.sink.Drop(e.slot) {
		// A hit for a read that was decided while this copy was on the
		// wire: the sink took the completion without the value, which is
		// skipped where it lies like an unclaimed frame's.
		_, err := r.Discard(vlen)
		return err
	}
	if err := readReplyValue(r, &f, vlen); err != nil {
		// The claim above is the promise to complete the request, even
		// when its value could not be read: then with the error every
		// other request on the connection is about to get.
		cn.fail(err)
		e.fail(cn.lostErr())
		return err
	}
	e.complete(&f)
	return nil
}

// readReplyValue reads the vlen value bytes of a reply whose head is in
// f: a versioned payload by readVerValue, anything else whole.
func readReplyValue(r *bufio.Reader, f *frame, vlen int) error {
	switch f.op {
	case opValueV, opStoredV, opCASResp, opEvent:
		return readVerValue(r, f, vlen)
	}
	return readFrameValue(r, f, vlen)
}

// claim takes tag's entry out of the waiter table, reporting whether it
// was there. Whoever claims an entry owns its one outcome: the reader
// delivers the reply, the timeout queue's fire the timeout, a
// withdrawing caller nothing at all — the eventual response finds
// nobody and is skipped on arrival, the mux cancellation contract.
// (fail claims the whole table at once.)
func (cn *muxConn) claim(tag uint64) (muxEntry, bool) {
	cn.mu.Lock()
	e, ok := cn.waiters[tag] // a dead connection's table is nil: not found
	if ok {
		delete(cn.waiters, tag)
	}
	cn.mu.Unlock()
	return e, ok
}

// timeoutsDue is the timeout timer's function: it claims every due tag
// still waiting (so its eventual response is skipped), re-arms for the
// rest, and fails the claimed requests with ErrMuxTimeout outside cn.mu.
func (cn *muxConn) timeoutsDue() {
	var due []muxEntry
	cn.mu.Lock()
	now := time.Now()
	for {
		tag, ok := cn.timeouts.popDue(now)
		if !ok {
			break
		}
		if e, ok := cn.waiters[tag]; ok {
			delete(cn.waiters, tag)
			due = append(due, e)
		}
	}
	cn.timeouts.rearm()
	cn.mu.Unlock()
	for i := range due {
		due[i].fail(ErrMuxTimeout)
	}
}

// putTimeout bounds a started put: the client's per-request timeout,
// and never more than versionedStragglerTimeout — a started put runs
// under no context, so this is all that ends one whose reply never
// comes.
func (m *MuxClient) putTimeout() time.Duration {
	if m.timeout > 0 && m.timeout < versionedStragglerTimeout {
		return m.timeout
	}
	return versionedStragglerTimeout
}

// Start implements core.Starter: the non-blocking form of GetV. It
// enqueues the request on the live connection and returns at once; the
// reply (or the per-request timeout, or the connection's loss) is
// delivered to sink.Complete(slot, …) from the connection's reader (or
// the timeout timer, or whoever failed the connection), unless Cancel
// withdraws it first. Start declines — having done nothing — when it
// would have to do what only a blocking call can: dial a connection
// never used, report a bad key, or fail fast while redialing; GetV
// handles each of those.
func (m *MuxClient) Start(key string, sink core.Sink[Versioned], slot int) (core.Ticket, bool) {
	cn, tag, ok := m.startLocked(key, muxEntry{sink: sink, slot: slot}, m.timeout)
	if !ok {
		return core.Ticket{}, false
	}
	cn.pending = appendFrame(cn.pending, &frame{op: opGetV, tag: tag, key: key})
	cn.mu.Unlock()
	cn.signalFlush()
	return core.Ticket{Ref: cn, ID: tag}, true
}

// startLocked is the shared first half of Start and StartPutV: it
// declines where Start declines, and otherwise registers e on the live
// connection. On ok the caller holds cn.mu, as after registerLocked.
func (m *MuxClient) startLocked(key string, e muxEntry, timeout time.Duration) (cn *muxConn, tag uint64, ok bool) {
	if ValidateKey(key) != nil {
		return nil, 0, false
	}
	if cn = m.cn.Load(); cn == nil || cn.lockLive() != nil {
		return nil, 0, false
	}
	return cn, cn.registerLocked(e, timeout), true
}

// StartPutV is the non-blocking form of PutV, as Start is of GetV: it
// encodes the put straight into the connection's pending buffer and
// returns at once, and sink.Complete(slot, result, result.Err) is called
// exactly once — by the connection's reader with the server's answer,
// by the timeout timer, or by whoever failed the connection (the sink's
// Drop is never asked: every copy of a write is wanted). The write
// group's call frame is such a sink. It reports
// false, having done nothing, exactly where Start declines and for a
// value too large to send; PutV handles those cases. A started put
// cannot be withdrawn and runs under no context: it is bounded by the
// client's timeout, and by versionedStragglerTimeout when that is longer
// or unset. value is not retained.
func (m *MuxClient) StartPutV(key string, value []byte, ttl time.Duration, version uint64, sink core.Sink[PutVResult], slot int) bool {
	if validateValue(len(value)) != nil {
		return false
	}
	cn, tag, ok := m.startLocked(key, muxEntry{put: sink, slot: slot}, m.putTimeout())
	if !ok {
		return false
	}
	cn.pending = appendVerFrame(cn.pending, opPutV, tag, 0, key, version, ttlSeconds(ttl), value)
	cn.mu.Unlock()
	cn.signalFlush()
	return true
}

// Cancel implements core.Starter: it withdraws a started read, true
// meaning its sink will never be called. The request is not recalled
// from the server; its reply is skipped on arrival.
func (m *MuxClient) Cancel(tk core.Ticket) bool {
	cn, _ := tk.Ref.(*muxConn)
	if cn == nil {
		return false
	}
	_, ok := cn.claim(tk.ID)
	return ok
}

// lockConn returns the live connection with cn.mu held, ready for
// registerLocked, dialing it first if need be.
func (m *MuxClient) lockConn(ctx context.Context) (*muxConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := m.conn(ctx)
	if err != nil {
		return nil, err
	}
	if err := cn.lockLive(); err != nil {
		return nil, err
	}
	return cn, nil
}

// do runs one request to completion: register and enqueue it, then wait
// for the response, the timeout, cancellation, or connection loss.
func (m *MuxClient) do(ctx context.Context, req frame) (frame, error) {
	cn, err := m.lockConn(ctx)
	if err != nil {
		return frame{}, err
	}
	w := muxWaiterPool.Get().(*muxWaiter)
	req.tag = cn.registerLocked(muxEntry{w: w}, m.timeout)
	cn.pending = appendFrame(cn.pending, &req)
	cn.mu.Unlock()
	cn.signalFlush()
	return m.wait(ctx, cn, req.tag, w)
}

// wait blocks for the completion of the blocking request registered on
// cn under tag with waiter w — its reply, its timeout or the
// connection's loss, from whoever claimed the tag — or for the caller's
// cancellation, which withdraws the request. A caller that loses the
// claim to a completer takes the completion still owed to w before the
// waiter goes back to the pool: at once from the timeout or fail, from
// the reader once the reply's value is read or the connection fails.
func (m *MuxClient) wait(ctx context.Context, cn *muxConn, tag uint64, w *muxWaiter) (frame, error) {
	select {
	case r := <-w.ch:
		muxWaiterPool.Put(w)
		return r.f, r.err
	case <-ctx.Done():
		if _, ok := cn.claim(tag); !ok {
			// A completer claimed the reply first; its value is nobody's.
			Release((<-w.ch).f.val)
		}
		muxWaiterPool.Put(w)
		return frame{}, ctx.Err()
	}
}

// replyErr is the error of a reply that is not one its request expects:
// the server's own error message, or an op that does not belong.
func replyErr(fr *frame) error {
	if fr.op == opErr {
		return fmt.Errorf("memkv: server error: %s", fr.val)
	}
	return fmt.Errorf("memkv: unexpected response op %#x", fr.op)
}

func frameToSet(fr *frame) error {
	if fr.op == opStored {
		return nil
	}
	return replyErr(fr)
}

// Get is GetV without the version and TTL: the value stored under key.
func (m *MuxClient) Get(ctx context.Context, key string) ([]byte, error) {
	v, _, _, err := m.GetV(ctx, key)
	return v, err
}

// Set stores value under key with no expiry.
func (m *MuxClient) Set(ctx context.Context, key string, value []byte) error {
	return m.SetTTL(ctx, key, value, 0)
}

// SetTTL stores value under key, expiring after ttl (rounded up to
// whole seconds; 0 = never).
func (m *MuxClient) SetTTL(ctx context.Context, key string, value []byte, ttl time.Duration) error {
	if err := ValidateKey(key); err != nil {
		return err
	}
	if err := validateValue(len(value)); err != nil {
		return err
	}
	fr, err := m.do(ctx, frame{op: opSet, aux: ttlSeconds(ttl), key: key, val: value})
	if err != nil {
		return err
	}
	return frameToSet(&fr)
}

// Stats fetches a snapshot of the server's counters (Server.Stats) by
// name.
func (m *MuxClient) Stats(ctx context.Context) (map[string]int64, error) {
	fr, err := m.do(ctx, frame{op: opStats})
	if err != nil {
		return nil, err
	}
	switch fr.op {
	case opStatsResp:
		return decodeStats(fr.val)
	default:
		return nil, replyErr(&fr)
	}
}

// ttlSeconds renders a TTL for the wire: whole seconds rounded up (0 =
// never), saturating at math.MaxUint32 (about 136 years) rather than
// wrapping to a short TTL. Rounding up cannot compound for a TTL as
// written, a write's or a watch event's. A remaining TTL re-applied hop
// after hop would, so whoever re-applies one floors it or takes a second
// off first (Store.GetVersion, readQuorum).
func ttlSeconds(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	secs := ttl / time.Second
	if ttl%time.Second != 0 {
		secs++
	}
	return uint32(min(secs, math.MaxUint32))
}

// ---- Versioned operations (the convergence surface) ----
//
// These are the wire counterparts of Store.GetVersion/PutVersion/Scan:
// last-writer-wins puts carrying explicit versions, version-observing
// gets, and the cursor-paged scan that anti-entropy streams over.

// Versioned is one read's answer, GetV's three results: what Start
// completes with and ShardedClient's read group returns.
type Versioned struct {
	Value   []byte
	Version uint64
	TTLSecs uint32
}

// GetV fetches the value, version, and remaining TTL (whole seconds,
// rounded up; 0 = never expires) stored under key. A missing key is
// ErrNotFound; version 0 never names a live value. A reader that
// re-applies the TTL must take a second off it first (see readQuorum).
// The value is the caller's; one who is finished with it may Release
// it, and the next read lands in the same bytes.
func (m *MuxClient) GetV(ctx context.Context, key string) (value []byte, version uint64, ttlSecs uint32, err error) {
	if err := ValidateKey(key); err != nil {
		return nil, 0, 0, err
	}
	fr, err := m.do(ctx, frame{op: opGetV, key: key})
	if err != nil {
		return nil, 0, 0, err
	}
	v, err := frameToGetV(&fr)
	return v.Value, v.Version, v.TTLSecs, err
}

// PutV stores value under key iff version is strictly newer than the
// stored version (last-writer-wins). It returns the key's version after
// the call — the caller's version if applied, the newer stored version
// if not — and whether the write applied. version must be nonzero.
func (m *MuxClient) PutV(ctx context.Context, key string, value []byte, ttl time.Duration, version uint64) (current uint64, applied bool, err error) {
	if err := ValidateKey(key); err != nil {
		return 0, false, err
	}
	if err := validateValue(len(value)); err != nil {
		return 0, false, err
	}
	fr, err := m.do(ctx, frame{op: opPutV, key: key, val: appendVerPayload(nil, version, ttlSeconds(ttl), value)})
	if err != nil {
		return 0, false, err
	}
	return frameToWrite(&fr, opStoredV)
}

// Scan returns up to limit live entries with keys strictly greater than
// after, in key order, with their versions and remaining TTLs. more
// reports whether another page may exist (pass the last returned key as
// the next cursor). This is the anti-entropy stream: a migrator walks a
// shard page by page and re-puts remapped entries at their new owners.
func (m *MuxClient) Scan(ctx context.Context, after string, limit int) (entries []ScanEntry, more bool, err error) {
	if limit < 1 || limit > maxScanLimit {
		limit = maxScanLimit
	}
	fr, err := m.do(ctx, frame{op: opScan, key: after, aux: uint32(limit)})
	if err != nil {
		return nil, false, err
	}
	switch fr.op {
	case opScanResp:
		entries, err := decodeScanEntries(fr.val)
		if err != nil {
			return nil, false, err
		}
		return entries, fr.aux == 1, nil
	default:
		return nil, false, replyErr(&fr)
	}
}

// VersionedPut is one entry of a PutVBatch.
type VersionedPut struct {
	Key     string
	Value   []byte
	TTL     time.Duration
	Version uint64
}

// PutVResult is one entry's outcome from PutVBatch.
type PutVResult struct {
	Current uint64
	Applied bool
	Err     error
}

// PutVBatch issues many versioned puts in one coalesced round — the
// migrator's bulk-transfer primitive. Every put is registered and
// encoded under one hold of the connection's lock, so the batch goes out
// as one write; then each is waited on like any blocking call, with its
// own timeout. Results align with puts by index. A put whose key or
// value PutV would refuse is not sent and carries PutV's error; the
// others go out. A caller that gives up withdraws the puts still
// outstanding.
func (m *MuxClient) PutVBatch(ctx context.Context, puts []VersionedPut) []PutVResult {
	out := make([]PutVResult, len(puts))
	for i, p := range puts {
		if out[i].Err = ValidateKey(p.Key); out[i].Err == nil {
			out[i].Err = validateValue(len(p.Value))
		}
	}
	cn, err := m.lockConn(ctx)
	if err != nil {
		for i := range out {
			if out[i].Err == nil {
				out[i].Err = err
			}
		}
		return out
	}
	ws := make([]*muxWaiter, len(puts))
	tags := make([]uint64, len(puts))
	for i, p := range puts {
		if out[i].Err != nil {
			continue
		}
		ws[i] = muxWaiterPool.Get().(*muxWaiter)
		tags[i] = cn.registerLocked(muxEntry{w: ws[i]}, m.timeout)
		cn.pending = appendVerFrame(cn.pending, opPutV, tags[i], 0, p.Key, p.Version, ttlSeconds(p.TTL), p.Value)
	}
	cn.mu.Unlock()
	cn.signalFlush()
	for i := range puts {
		if ws[i] == nil {
			continue // refused above, never sent
		}
		fr, err := m.wait(ctx, cn, tags[i], ws[i])
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Current, out[i].Applied, out[i].Err = frameToWrite(&fr, opStoredV)
	}
	return out
}

// frameToGetV turns a read's reply, its versioned payload decoded by
// readVerValue, into the read's outcome.
func frameToGetV(fr *frame) (Versioned, error) {
	switch {
	case fr.op == opValueV && !fr.short:
		return Versioned{Value: fr.val, Version: fr.ver, TTLSecs: fr.ttl}, nil
	case fr.op == opValueV:
		return Versioned{}, errVerPayload
	case fr.op == opNotFound:
		return Versioned{}, ErrNotFound
	default:
		return Versioned{}, replyErr(fr)
	}
}

// frameToWrite turns the reply to a versioned write, its payload decoded
// by readVerValue, into the write's outcome; op is the reply the write
// expects (opStoredV for a put, opCASResp for a CAS).
func frameToWrite(fr *frame, op byte) (current uint64, applied bool, err error) {
	switch {
	case fr.op != op:
		return 0, false, replyErr(fr)
	case fr.short:
		return 0, false, errVerPayload
	}
	return fr.ver, fr.aux == 1, nil
}
