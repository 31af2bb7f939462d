package dnswire

import (
	"context"
	"errors"
	"net"
	"testing"

	"redundancy/internal/core"
)

// TestClientZeroValue pins that a zero &Client{} is usable: query IDs come
// from the global generator, and a zero Timeout means the documented
// 2-second default rather than a deadline of now.
func TestClientZeroValue(t *testing.T) {
	_, addr := startDNS(t, staticZone())
	resp, err := (&Client{}).Query(context.Background(), addr, "www.example.com", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != RCodeSuccess || len(resp.Answers) != 1 {
		t.Fatalf("resp %+v", resp.Header)
	}
}

// TestLookupAOwnerNames pins that LookupA returns only the A records owned
// by the queried name or by its CNAME target in the same response.
func TestLookupAOwnerNames(t *testing.T) {
	a := func(owner string, ip net.IP) RR {
		return RR{Name: owner, Type: TypeA, Class: ClassIN, TTL: 60, IP: ip.To4()}
	}
	cases := []struct {
		name    string
		lookup  string
		answers []RR
		want    net.IP // nil: *NotFoundError
	}{
		{
			name:    "foreign record",
			lookup:  "www.example.com",
			answers: []RR{a("elsewhere.example.org", net.IPv4(203, 0, 113, 9))},
		},
		{
			name:   "cname and its target",
			lookup: "www.example.com",
			answers: []RR{
				{Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 60, Target: "edge.example.net"},
				a("edge.example.net", net.IPv4(192, 0, 2, 44)),
			},
			want: net.IPv4(192, 0, 2, 44),
		},
		{
			name:    "mixed case and trailing dot",
			lookup:  "WWW.Example.com.",
			answers: []RR{a("www.example.COM", net.IPv4(192, 0, 2, 10))},
			want:    net.IPv4(192, 0, 2, 10),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startDNS(t, func(Question) *Message {
				return &Message{Answers: tc.answers}
			})
			r := NewResolver(nil, core.Fixed{Copies: 1}, addr)
			ips, err := r.LookupA(context.Background(), tc.lookup)
			if tc.want == nil {
				var nf *NotFoundError
				if !errors.As(err, &nf) {
					t.Fatalf("LookupA = %v, %v; want *NotFoundError", ips, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(ips) != 1 || !ips[0].Equal(tc.want) {
				t.Fatalf("LookupA = %v, want [%v]", ips, tc.want)
			}
		})
	}
}
