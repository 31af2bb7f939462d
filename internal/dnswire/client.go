package dnswire

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"redundancy/internal/core"
)

// Client sends DNS queries over UDP. It is safe for concurrent use, and
// its zero value is ready to use. Each query uses its own socket, which
// gives each query an unpredictable source port: the defence against
// spoofed answers when the servers sit across the open internet, as the
// paper's public resolvers do (query IDs alone are too guessable to rely
// on).
type Client struct {
	// Timeout bounds each query; zero or negative means 2 seconds, the
	// paper's loss cutoff.
	Timeout time.Duration
}

// NewClient returns a Client with the given timeout (0 means 2 s).
func NewClient(timeout time.Duration) *Client {
	return &Client{Timeout: timeout}
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

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	deadline := time.Now().Add(timeout)
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
	return c.Exchange(ctx, server, NewQuery(uint16(rand.Uint32()), name, qtype))
}

// Resolver queries a set of DNS servers redundantly: each lookup goes to
// the k lowest-latency servers in parallel (or staggered by a hedge
// delay), and the first well-formed response wins — the paper's §3.2
// replicated-DNS strategy.
type Resolver struct {
	// group passes each lookup's Question to the server replicas as the
	// call argument; replica functions close over only the client and
	// their server address, with no per-call context plumbing.
	group *core.KeyedGroup[Question, *Message]
}

// NewResolver builds a Resolver over the given server addresses, sending
// each query through c (nil means a zero Client). s decides how many
// servers each lookup contacts and when (the paper evaluates core.Fixed
// with 1-10 copies over servers ranked by observed mean response time,
// which is Fixed's default selection). core.AdaptiveHedge{Copies: 2,
// Quantile: p} is the production form of the paper's §3.2 strategy — a
// second query when the best-ranked server exceeds the p-th percentile of
// its observed latency, the hedging point tracking each server's latency
// distribution instead of a caller-guessed delay; warm the per-server
// digests with Probe.
func NewResolver(c *Client, s core.Strategy, servers ...string) *Resolver {
	if c == nil {
		c = &Client{}
	}
	r := &Resolver{group: core.NewStrategyKeyedGroup[Question, *Message](s)}
	for _, srv := range servers {
		r.group.Add(srv, func(ctx context.Context, q Question) (*Message, error) {
			resp, err := c.Query(ctx, srv, q.Name, q.Type)
			if err != nil {
				return nil, err
			}
			if resp.Header.RCode != RCodeSuccess && resp.Header.RCode != RCodeNameError {
				return nil, fmt.Errorf("dnswire: %s from %s", resp.Header.RCode, srv)
			}
			return resp, nil
		})
	}
	return r
}

// Lookup resolves name/qtype through the replicated server set. Per-call
// options tune one lookup without touching the resolver: a
// latency-critical query can core.WithStrategyOverride to full
// replication while the resolver keeps hedging for everyone else, cap
// its fan-out, or core.WithLabel its traffic class.
func (r *Resolver) Lookup(ctx context.Context, name string, qtype Type, opts ...core.CallOption) (*Message, error) {
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
// indirection within the same response: it returns the A records owned
// by name or by name's CNAME target, and ignores records for any other
// owner.
func (r *Resolver) LookupA(ctx context.Context, name string, opts ...core.CallOption) ([]net.IP, error) {
	resp, err := r.Lookup(ctx, name, TypeA, opts...)
	if err != nil {
		return nil, err
	}
	if resp.Header.RCode == RCodeNameError {
		return nil, &NotFoundError{Name: name}
	}
	want, alias := normalizeName(name), ""
	for _, rr := range resp.Answers {
		if rr.Type == TypeCNAME && normalizeName(rr.Name) == want {
			alias = normalizeName(rr.Target)
			break
		}
	}
	var ips []net.IP
	for _, rr := range resp.Answers {
		if rr.Type != TypeA {
			continue
		}
		if owner := normalizeName(rr.Name); owner == want || (alias != "" && owner == alias) {
			ips = append(ips, net.IP(rr.IP))
		}
	}
	if len(ips) == 0 {
		return nil, &NotFoundError{Name: name}
	}
	return ips, nil
}

// NotFoundError reports a name with no usable answer.
type NotFoundError struct{ Name string }

func (e *NotFoundError) Error() string { return "dnswire: no answer for " + e.Name }
