package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestReadResponseHead(t *testing.T) {
	for _, tc := range []struct {
		name   string
		in     string
		status int
		length int
		bad    bool
	}{
		{"plain", "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: 64\r\n\r\n", 200, 64, false},
		{"header case", "HTTP/1.1 404 Not Found\r\ncontent-length:17\r\n\r\n", 404, 17, false},
		{"empty body", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 200, 0, false},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", 0, 0, true},
		{"no length", "HTTP/1.1 200 OK\r\nDate: x\r\n\r\n", 0, 0, true},
		{"bad length", "HTTP/1.1 200 OK\r\nContent-Length: -4\r\n\r\n", 0, 0, true},
		{"not http", "SSH-2.0-OpenSSH\r\n\r\n", 0, 0, true},
		{"cut short", "HTTP/1.1 200 OK\r\nContent-Le", 0, 0, true},
	} {
		status, n, err := readResponseHead(bufio.NewReader(strings.NewReader(tc.in)))
		if (err != nil) != tc.bad || status != tc.status || n != tc.length {
			t.Errorf("%s: status %d, length %d, err %v; want %d, %d, error=%v", tc.name, status, n, err, tc.status, tc.length, tc.bad)
		}
	}
}

func TestAppendRequest(t *testing.T) {
	got := string(appendRequest(nil, renderGetHead("k1"), 0, nil))
	if want := "GET /kv/k1 HTTP/1.1\r\nHost: bench\r\n\r\n"; got != want {
		t.Errorf("GET = %q, want %q", got, want)
	}
	got = string(appendRequest(nil, renderPutHead("k1", 3), 42, []byte("abc")))
	if want := "PUT /kv/k1 HTTP/1.1\r\nHost: bench\r\nContent-Length: 3\r\nX-Bench-Req: 42\r\n\r\nabc"; got != want {
		t.Errorf("traced PUT = %q, want %q", got, want)
	}
}

func TestParsePutVersion(t *testing.T) {
	for in, want := range map[string]uint64{
		`{"version":1790401408728252596}` + "\n": 1790401408728252596,
		`{"version":7}`:                          7,
		`{"version":0}`:                          0,
		`{"error":"cas_conflict"}`:               0,
		`{"version":-1}`:                         0,
		``:                                       0,
	} {
		if got := parsePutVersion([]byte(in)); got != want {
			t.Errorf("parsePutVersion(%q) = %d, want %d", in, got, want)
		}
	}
}

// The parser against what the gateway really sends: a value, a miss, a
// versioned write and a failed compare-and-swap, all on one connection.
func TestRawConnAgainstGateway(t *testing.T) {
	wl := workloadByName("gw_put_get_mix")
	s, clients, err := setUp(wl, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tearDown(s, clients)
	conn, err := dialRaw(s.gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	errorCode := func(body []byte) string {
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil {
			t.Errorf("error body %q is not JSON: %v", body, err)
		}
		return e.Error
	}

	status, body, err := conn.roundTrip(appendRequest(nil, renderGetHead(keyName(5)), 0, nil))
	if err != nil || status != 200 || !checkValue(body, 5, 0, wl.valueSize) {
		t.Fatalf("GET of a preloaded key: status %d, %d bytes, err %v", status, len(body), err)
	}
	status, body, err = conn.roundTrip(appendRequest(nil, renderGetHead("absent"), 0, nil))
	if err != nil || status != 404 || errorCode(body) != "not_found" {
		t.Fatalf("GET of an absent key: status %d, body %q, err %v", status, body, err)
	}
	val := bytes.Repeat([]byte{'v'}, wl.valueSize)
	status, body, err = conn.roundTrip(appendRequest(nil, renderPutHead("fresh", len(val)), 0, val))
	if err != nil || status != 200 || parsePutVersion(body) == 0 {
		t.Fatalf("PUT: status %d, body %q, err %v", status, body, err)
	}
	cas := []byte("PUT /kv/fresh HTTP/1.1\r\nHost: bench\r\nX-Expect-Version: 1\r\nContent-Length: 1\r\n\r\nx")
	status, body, err = conn.roundTrip(cas)
	if err != nil || status != 409 || errorCode(body) != "cas_conflict" || parsePutVersion(body) != 0 {
		t.Fatalf("CAS against a wrong version: status %d, body %q, err %v", status, body, err)
	}
	// The connection is still framed correctly after the error replies.
	status, body, err = conn.roundTrip(appendRequest(nil, renderGetHead("fresh"), 0, nil))
	if err != nil || status != 200 || !bytes.Equal(body, val) {
		t.Fatalf("GET after the errors: status %d, %d bytes, err %v", status, len(body), err)
	}
}
