package dnswire

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"redundancy/internal/core"
)

// Querier is the query surface a Resolver drives: one lookup against one
// server. Both Client (a fresh socket per query, unpredictable source
// ports) and MuxClient (one connected socket per server, demuxed by DNS
// message ID) implement it, so a resolver migrates transports without
// touching its replication policy.
type Querier interface {
	Query(ctx context.Context, server, name string, qtype Type) (*Message, error)
}

var (
	// ErrMuxConnLost reports that a multiplexed server socket died with
	// queries in flight; pending queries fail with an error wrapping this
	// sentinel and the next query redials.
	ErrMuxConnLost = errors.New("dnswire: mux connection lost")
	// ErrMuxTimeout reports a multiplexed query that exceeded the
	// client's timeout. The socket and other in-flight queries are
	// unharmed — the ID is simply retired and a late answer discarded.
	ErrMuxTimeout = errors.New("dnswire: mux query timeout")
	// ErrMuxIDsExhausted reports 65536 queries already in flight to one
	// server — the DNS message ID space is the protocol's hard
	// multiplexing ceiling.
	ErrMuxIDsExhausted = errors.New("dnswire: all query IDs in flight")
)

// MuxClient multiplexes DNS queries over one connected UDP socket per
// server, using the protocol's own 16-bit message ID as the demux tag —
// DNS was a multiplexed wire format all along; the v1 Client just
// declined the offer by dedicating a socket per query. Where Client's
// concurrency ceiling is file descriptors (one socket per in-flight
// query), MuxClient's is the ID space: up to 65536 outstanding queries
// per server on a single socket.
//
// The trade is source-port randomization: all queries to a server share
// one source port, so off-path spoofing resistance rests on the random
// starting ID alone. That is the right trade inside a trusted network
// (the paper's data-center setting) and the wrong one on the open
// internet — keep Client for untrusted paths.
//
// A MuxClient is safe for concurrent use and implements Querier, so it
// plugs into NewResolver directly.
type MuxClient struct {
	// Timeout bounds each query; zero or negative means the 2-second
	// default (the paper's loss cutoff). UDP has no delivery guarantee,
	// so an unanswered query holds its ID until this fires; it is
	// enforced on the shared timer wheel, not with a per-query runtime
	// timer.
	Timeout time.Duration

	mu     sync.Mutex
	conns  map[string]*dnsMuxConn
	closed bool
}

// NewMuxClient returns a multiplexed DNS client (0 timeout means 2 s).
// Sockets are dialed lazily, one per server queried.
func NewMuxClient(timeout time.Duration) *MuxClient {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	return &MuxClient{Timeout: timeout, conns: make(map[string]*dnsMuxConn)}
}

// dnsMuxConn is one server's connected UDP socket plus the in-flight
// query table keyed by message ID.
type dnsMuxConn struct {
	c net.Conn

	mu      sync.Mutex
	nextID  uint16
	waiters map[uint16]*dnsMuxWaiter
	dead    bool
	err     error

	done chan struct{}
}

// dnsMuxWaiter is one in-flight query's rendezvous: a cap-1 channel that
// receives exactly one message (the answer, or the timeout sentinel).
// Waiters recycle through a pool under the same rule as the memkv mux: a
// waiter returns to the pool only via a path that proved its channel is
// and stays empty.
type dnsMuxWaiter struct {
	ch chan *Message
}

var dnsMuxWaiterPool = sync.Pool{
	New: func() any { return &dnsMuxWaiter{ch: make(chan *Message, 1)} },
}

// muxTimeoutMsg is the timeout sentinel; the reader only ever delivers
// freshly decoded messages, so this pointer is unambiguous.
var muxTimeoutMsg = new(Message)

func (m *MuxClient) dial(ctx context.Context, server string) (*dnsMuxConn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "udp", server)
	if err != nil {
		return nil, err
	}
	cn := &dnsMuxConn{
		c:       c,
		nextID:  uint16(rand.Intn(1 << 16)),
		waiters: make(map[uint16]*dnsMuxWaiter),
		done:    make(chan struct{}),
	}
	go cn.reader()
	return cn, nil
}

// conn returns a live socket for server, dialing or redialing on demand.
func (m *MuxClient) conn(ctx context.Context, server string) (*dnsMuxConn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("dnswire: mux client closed")
	}
	if m.conns == nil {
		// Zero-value client: Close nils the map too, but that path is
		// caught by the closed check above.
		m.conns = make(map[string]*dnsMuxConn)
	}
	if cn := m.conns[server]; cn != nil && !cn.isDead() {
		return cn, nil
	}
	cn, err := m.dial(ctx, server)
	if err != nil {
		return nil, err
	}
	m.conns[server] = cn
	return cn, nil
}

// Close closes every server socket. Queries in flight fail with
// ErrMuxConnLost; subsequent queries fail immediately.
func (m *MuxClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for _, cn := range conns {
		cn.fail(errors.New("client closed"))
	}
	return nil
}

func (cn *dnsMuxConn) isDead() bool {
	select {
	case <-cn.done:
		return true
	default:
		return false
	}
}

func (cn *dnsMuxConn) lostErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.err != nil {
		return cn.err
	}
	return ErrMuxConnLost
}

// fail marks the socket dead exactly once, releasing pending waiters via
// the done channel and closing the socket (which stops the reader).
func (cn *dnsMuxConn) fail(cause error) {
	cn.mu.Lock()
	if cn.dead {
		cn.mu.Unlock()
		return
	}
	cn.dead = true
	cn.err = fmt.Errorf("%w: %v", ErrMuxConnLost, cause)
	cn.waiters = nil
	cn.mu.Unlock()
	close(cn.done)
	cn.c.Close()
}

// register claims a free message ID and installs a waiter under it,
// scanning forward from a per-socket cursor that started at a random
// point (the spoofing defense the shared socket still affords).
func (cn *dnsMuxConn) register() (uint16, *dnsMuxWaiter, error) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.dead {
		if cn.err != nil {
			return 0, nil, cn.err
		}
		return 0, nil, ErrMuxConnLost
	}
	for range 1 << 16 {
		cn.nextID++
		if _, busy := cn.waiters[cn.nextID]; !busy {
			w := dnsMuxWaiterPool.Get().(*dnsMuxWaiter)
			cn.waiters[cn.nextID] = w
			return cn.nextID, w, nil
		}
	}
	return 0, nil, ErrMuxIDsExhausted
}

// reader demuxes response datagrams to their ID's waiter. Malformed
// datagrams and answers whose ID has no waiter (cancelled, timed out, or
// never ours) are discarded and the socket lives on; only a socket-level
// read error kills the connection.
func (cn *dnsMuxConn) reader() {
	buf := make([]byte, 64<<10)
	for {
		n, err := cn.c.Read(buf)
		if err != nil {
			cn.fail(err)
			return
		}
		resp, err := Decode(buf[:n])
		if err != nil {
			continue
		}
		cn.mu.Lock()
		w := cn.waiters[resp.Header.ID]
		if w != nil {
			delete(cn.waiters, resp.Header.ID)
		}
		cn.mu.Unlock()
		if w != nil {
			w.ch <- resp // cap 1, sole delivery: never blocks
		}
	}
}

// abandon gives up on a waiter (cancellation): if the ID is still
// registered the eventual answer is discarded on arrival; if it is gone,
// a delivery is in flight (drain it) or the socket died.
func (cn *dnsMuxConn) abandon(id uint16, w *dnsMuxWaiter) {
	cn.mu.Lock()
	if cn.waiters != nil {
		if _, ok := cn.waiters[id]; ok {
			delete(cn.waiters, id)
			cn.mu.Unlock()
			dnsMuxWaiterPool.Put(w)
			return
		}
	}
	cn.mu.Unlock()
	select {
	case <-w.ch:
		dnsMuxWaiterPool.Put(w)
	case <-cn.done:
	}
}

// dnsMuxTimeoutFired is the shared-wheel timeout callback: retire the ID
// (late answers are discarded) and deliver the sentinel. c is the
// *dnsMuxConn, i the message ID.
func dnsMuxTimeoutFired(c any, i int64) {
	cn := c.(*dnsMuxConn)
	id := uint16(i)
	cn.mu.Lock()
	var w *dnsMuxWaiter
	if cn.waiters != nil {
		w = cn.waiters[id]
		if w != nil {
			delete(cn.waiters, id)
		}
	}
	cn.mu.Unlock()
	if w != nil {
		w.ch <- muxTimeoutMsg
	}
}

// Exchange sends query to server over the shared socket and waits for
// the matching answer. The query's header ID is rewritten to the
// socket's assigned ID — callers must not rely on it.
func (m *MuxClient) Exchange(ctx context.Context, server string, query *Message) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cn, err := m.conn(ctx, server)
	if err != nil {
		return nil, err
	}
	id, w, err := cn.register()
	if err != nil {
		return nil, err
	}
	query.Header.ID = id
	wire, err := Encode(query)
	if err != nil {
		cn.abandon(id, w)
		return nil, err
	}
	// One datagram, one syscall: UDP needs no write coalescing, and
	// net.Conn serializes concurrent writers itself.
	if _, err := cn.c.Write(wire); err != nil {
		cn.abandon(id, w)
		cn.fail(err)
		return nil, fmt.Errorf("dnswire: mux write: %w", err)
	}
	timeout := m.Timeout
	if timeout <= 0 {
		// A zero-value &MuxClient{} gets the same default NewMuxClient
		// applies; AfterFunc(0) would fire on the next wheel tick.
		timeout = 2 * time.Second
	}
	tm := core.SharedWheel().AfterFunc(timeout, dnsMuxTimeoutFired, cn, int64(id))
	select {
	case resp := <-w.ch:
		tm.Stop()
		dnsMuxWaiterPool.Put(w)
		if resp == muxTimeoutMsg {
			return nil, fmt.Errorf("%w after %v", ErrMuxTimeout, timeout)
		}
		return resp, nil
	case <-ctx.Done():
		tm.Stop()
		cn.abandon(id, w)
		return nil, ctx.Err()
	case <-cn.done:
		tm.Stop()
		return nil, cn.lostErr()
	}
}

// Query builds a recursive query for name/qtype and exchanges it with
// server; the message ID is assigned by the socket.
func (m *MuxClient) Query(ctx context.Context, server, name string, qtype Type) (*Message, error) {
	return m.Exchange(ctx, server, NewQuery(0, name, qtype))
}
