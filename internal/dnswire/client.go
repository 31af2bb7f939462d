package dnswire

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"redundancy/internal/core"
)

// Client sends DNS queries over UDP. It is safe for concurrent use; each
// query uses its own socket, which also gives each query an unpredictable
// source port (query IDs alone are too guessable to rely on).
type Client struct {
	// Timeout bounds each query (default 2 seconds, the paper's loss
	// cutoff).
	Timeout time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewClient returns a Client with the given timeout (0 means 2 s).
func NewClient(timeout time.Duration) *Client {
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	return &Client{
		Timeout: timeout,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

func (c *Client) newID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return uint16(c.rng.Intn(1 << 16))
}

// Exchange sends the query to server (a "host:port" UDP address) and waits
// for a matching response.
func (c *Client) Exchange(ctx context.Context, server string, query *Message) (*Message, error) {
	wire, err := Encode(query)
	if err != nil {
		return nil, err
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	deadline := time.Now().Add(c.Timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(deadline) {
		deadline = cd
	}
	conn.SetDeadline(deadline)
	// Abandon the socket wait the moment ctx is cancelled: when a
	// redundant lookup's winner arrives, the losing queries' contexts are
	// cancelled and their sockets must not sit out the full timeout.
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()

	if _, err := conn.Write(wire); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, err
		}
		resp, err := Decode(buf[:n])
		if err != nil {
			// Malformed datagram; keep waiting for a valid one until the
			// deadline.
			continue
		}
		if resp.Header.ID != query.Header.ID {
			// Stale or spoofed; keep waiting.
			continue
		}
		return resp, nil
	}
}

// Query is a convenience wrapper: build a recursive query for name/qtype
// with a fresh ID and exchange it with server.
func (c *Client) Query(ctx context.Context, server, name string, qtype Type) (*Message, error) {
	return c.Exchange(ctx, server, NewQuery(c.newID(), name, qtype))
}

// Resolver queries a set of DNS servers redundantly: each lookup goes to
// the k lowest-latency servers in parallel (or staggered by a hedge
// delay), and the first well-formed response wins — the paper's §3.2
// replicated-DNS strategy.
type Resolver struct {
	client Querier
	// group passes each lookup's Question to the server replicas as the
	// call argument; replica functions close over only their server
	// address, with no per-call context plumbing.
	group *core.KeyedGroup[Question, *Message]
}

// NewResolver builds a Resolver over the given server addresses, sending
// through q — a Client for socket-per-query (a fresh random source port
// per query), a MuxClient for one multiplexed socket per server, or a
// test fake; nil means a default Client. s decides how many servers each
// lookup contacts and when (the paper evaluates core.Fixed with 1-10
// copies over servers ranked by observed mean response time, which is
// Fixed's default selection). core.AdaptiveHedge{Copies: 2, Quantile: p}
// is the production form of the paper's §3.2 strategy — a second query
// when the best-ranked server exceeds the p-th percentile of its
// observed latency, the hedging point tracking each server's latency
// distribution instead of a caller-guessed delay; warm the per-server
// digests with Probe.
func NewResolver(q Querier, s core.Strategy, servers ...string) *Resolver {
	if q == nil {
		q = NewClient(0)
	}
	r := &Resolver{client: q}
	r.group = core.NewStrategyKeyedGroup[Question, *Message](s)
	for _, srv := range servers {
		r.group.Add(srv, r.serverReplica(srv))
	}
	return r
}

// serverReplica builds the replica function for one server address.
func (r *Resolver) serverReplica(srv string) core.ArgReplica[Question, *Message] {
	return func(ctx context.Context, q Question) (*Message, error) {
		resp, err := r.client.Query(ctx, srv, q.Name, q.Type)
		if err != nil {
			return nil, err
		}
		if resp.Header.RCode != RCodeSuccess && resp.Header.RCode != RCodeNameError {
			return nil, fmt.Errorf("dnswire: %s from %s", resp.Header.RCode, srv)
		}
		return resp, nil
	}
}

// Lookup resolves name/qtype through the replicated server set. Per-call
// options tune one lookup without touching the resolver: a
// latency-critical query can core.WithStrategyOverride to full
// replication while the resolver keeps hedging for everyone else, cap
// its fan-out, or core.WithLabel its traffic class.
func (r *Resolver) Lookup(ctx context.Context, name string, qtype Type, opts ...core.CallOption) (*Message, error) {
	if len(opts) == 0 {
		// The common zero-option lookup rides the group's DoValue fast
		// lane (pooled call frame, no option materialization).
		return r.group.DoValue(ctx, Question{Name: name, Type: qtype})
	}
	res, err := r.group.Do(ctx, Question{Name: name, Type: qtype}, opts...)
	if err != nil {
		return nil, err
	}
	return res.Value, nil
}

// LookupResult is Lookup with redundancy metadata (winning server, latency,
// copies sent).
func (r *Resolver) LookupResult(ctx context.Context, name string, qtype Type, opts ...core.CallOption) (core.Result[*Message], error) {
	return r.group.Do(ctx, Question{Name: name, Type: qtype}, opts...)
}

// RankedServers returns the resolver's servers ordered by estimated
// latency, fastest first.
func (r *Resolver) RankedServers() []string { return r.group.RankedNames() }

// GroupStats reports the resolver's strategy, server set, and per-server
// latency estimates.
func (r *Resolver) GroupStats() core.GroupStats { return r.group.Stats() }

// AddServer adds a DNS server to the replica set; lookups in flight are
// unaffected.
func (r *Resolver) AddServer(srv string) {
	r.group.Add(srv, r.serverReplica(srv))
}

// RemoveServer drops a DNS server from the replica set, reporting whether
// it was present. Lookups in flight may still receive its answers.
func (r *Resolver) RemoveServer(srv string) bool { return r.group.Remove(srv) }

// SetStrategy replaces the resolver's replication strategy; lookups in
// flight finish under the strategy they started with.
func (r *Resolver) SetStrategy(s core.Strategy) { r.group.SetStrategy(s) }

// Probe queries every server once for name/qtype, concurrently and to
// completion, to establish per-server latency estimates — the ranking
// stage of the paper's DNS experiment. It returns the number of servers
// that answered.
func (r *Resolver) Probe(ctx context.Context, name string, qtype Type) int {
	return r.group.ProbeAll(ctx, Question{Name: name, Type: qtype})
}

// LookupA resolves name to IPv4 addresses, following one level of CNAME
// indirection within the same response.
func (r *Resolver) LookupA(ctx context.Context, name string, opts ...core.CallOption) ([]net.IP, error) {
	resp, err := r.Lookup(ctx, name, TypeA, opts...)
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode == RCodeNameError {
		return nil, &NotFoundError{Name: name}
	}
	want := normalizeName(name)
	cnames := map[string]string{}
	var ips []net.IP
	for _, rr := range resp.Answers {
		switch rr.Type {
		case TypeCNAME:
			cnames[normalizeName(rr.Name)] = normalizeName(rr.Target)
		case TypeA:
			ips = append(ips, net.IP(rr.IP))
		}
	}
	if len(ips) > 0 {
		return ips, nil
	}
	if target, ok := cnames[want]; ok {
		_ = target // CNAME with no A in the same message: report not found here.
	}
	return nil, &NotFoundError{Name: name}
}

// NotFoundError reports a name with no usable answer.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string { return "dnswire: no answer for " + e.Name }
