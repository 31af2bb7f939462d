package dnswire

import (
	"net"
	"sync"
	"time"
)

// Handler answers a single DNS question. Returning nil causes a SERVFAIL
// response.
type Handler func(q Question) *Message

// Server is a minimal UDP DNS server for tests, examples, and the mock
// resolvers used by the DNS experiment. Each datagram is answered on its
// own goroutine.
type Server struct {
	// Handler produces answers. The query message's first question is
	// passed; multi-question queries are answered from the first question
	// only, like most real servers.
	Handler Handler
	// Delay, if non-nil, is called per query and its result slept before
	// answering — the latency-injection hook used to emulate slow
	// resolvers. Set it before Listen: the serve loop reads it without
	// synchronization.
	Delay func() time.Duration
	// DropProb, with Rand, simulates request loss: queries are silently
	// dropped with this probability. Rand must be non-nil if DropProb > 0.
	DropProb float64
	// Rand returns a uniform [0,1) sample for DropProb; it must be safe
	// for concurrent use or the server must be single-inflight.
	Rand func() float64

	pc     net.PacketConn
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server with the given handler.
func NewServer(h Handler) *Server {
	return &Server{Handler: h}
}

// Listen binds to a UDP address ("127.0.0.1:0" for an ephemeral port) and
// starts serving in the background. It returns the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.pc = pc
	s.mu.Unlock()
	s.wg.Add(1)
	go s.loop(pc)
	return pc.LocalAddr(), nil
}

// Close stops the server and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	pc := s.pc
	s.mu.Unlock()
	var err error
	if pc != nil {
		err = pc.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) loop(pc net.PacketConn) {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		if s.DropProb > 0 && s.Rand != nil && s.Rand() < s.DropProb {
			continue
		}
		pkt := append([]byte(nil), buf[:n]...)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(pc, from, pkt)
		}()
	}
}

func (s *Server) handle(pc net.PacketConn, from net.Addr, pkt []byte) {
	resp := s.respond(pkt)
	if resp == nil {
		return
	}
	wire, err := Encode(resp)
	if err != nil {
		return
	}
	pc.WriteTo(wire, from)
}

// respond runs the handler for one wire-format query, applying the Delay
// hook, and returns the response message (nil to drop).
func (s *Server) respond(pkt []byte) *Message {
	query, err := Decode(pkt)
	if err != nil || query.Header.Response || len(query.Questions) == 0 {
		return nil // not a query we can answer; drop
	}
	if s.Delay != nil {
		if d := s.Delay(); d > 0 {
			time.Sleep(d)
		}
	}
	var resp *Message
	if s.Handler != nil {
		resp = s.Handler(query.Questions[0])
	}
	if resp == nil {
		resp = NewResponse(query, RCodeServerFailure)
	} else {
		// Ensure the response is well-formed with respect to the query.
		resp.Header.ID = query.Header.ID
		resp.Header.Response = true
		if len(resp.Questions) == 0 {
			resp.Questions = append(resp.Questions, query.Questions...)
		}
	}
	return resp
}

// StaticHandler answers A queries from a fixed name -> IPv4 map and returns
// NXDOMAIN otherwise. It is the workhorse handler for tests and examples.
func StaticHandler(records map[string]net.IP) Handler {
	norm := make(map[string]net.IP, len(records))
	for k, v := range records {
		norm[normalizeName(k)] = v.To4()
	}
	return func(q Question) *Message {
		msg := &Message{
			Header:    Header{Response: true, RecursionAvailable: true},
			Questions: []Question{q},
		}
		ip, ok := norm[normalizeName(q.Name)]
		if !ok || ip == nil || (q.Type != TypeA && q.Type != TypeANY) {
			msg.Header.RCode = RCodeNameError
			return msg
		}
		msg.Answers = append(msg.Answers, RR{
			Name: q.Name, Type: TypeA, Class: ClassIN, TTL: 60, IP: ip,
		})
		return msg
	}
}
