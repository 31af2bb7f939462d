package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// rawConn is one keep-alive HTTP/1.1 connection driven with request
// bytes the caller rendered itself and the smallest response parser that
// reads what the gateway sends: a status line, headers, and a body whose
// length Content-Length gives. It exists so that the load generator's
// own cost per request stays well below the program's; net/http's client
// would add a transport, a goroutine pair and a dozen allocations to
// every request it measures.
type rawConn struct {
	c    net.Conn
	r    *bufio.Reader
	body []byte // reused between responses
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawConn{c: c, r: bufio.NewReaderSize(c, 8<<10)}, nil
}

func (rc *rawConn) Close() error { return rc.c.Close() }

// roundTrip writes one rendered request and reads its response. The body
// is valid until the next call.
func (rc *rawConn) roundTrip(req []byte) (status int, body []byte, err error) {
	if _, err := rc.c.Write(req); err != nil {
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	status, n, err := readResponseHead(rc.r)
	if err != nil {
		return 0, nil, err
	}
	if cap(rc.body) < n {
		rc.body = make([]byte, n)
	}
	rc.body = rc.body[:n]
	if _, err := io.ReadFull(rc.r, rc.body); err != nil {
		return 0, nil, fmt.Errorf("read %d-byte body: %w", n, err)
	}
	return status, rc.body, nil
}

var (
	crlf             = []byte("\r\n")
	hdrContentLength = []byte("content-length:")
	hdrTransferEnc   = []byte("transfer-encoding:")
)

// readResponseHead consumes a status line and the headers after it and
// returns the status code and the body length that follows. A response
// without Content-Length, or with a transfer encoding, is an error: the
// gateway sends neither for the bodies this benchmark asks for, and a
// parser that guessed would mis-frame every later response on the
// connection.
func readResponseHead(r *bufio.Reader) (status, contentLength int, err error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("read status line: %w", err)
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 14 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, fmt.Errorf("malformed status line %q", line)
	}
	contentLength = -1
	for {
		line, err = r.ReadSlice('\n')
		if err != nil {
			return 0, 0, fmt.Errorf("read header: %w", err)
		}
		if bytes.Equal(line, crlf) {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			v := bytes.TrimSpace(line[len(hdrContentLength):])
			contentLength, err = strconv.Atoi(string(v))
			if err != nil || contentLength < 0 {
				return 0, 0, fmt.Errorf("malformed Content-Length %q", v)
			}
		case hasPrefixFold(line, hdrTransferEnc):
			return 0, 0, errors.New("response uses a transfer encoding")
		}
	}
	if contentLength < 0 {
		return 0, 0, errors.New("response has no Content-Length")
	}
	return status, contentLength, nil
}

// hasPrefixFold reports whether line starts with the lower-case prefix,
// ignoring ASCII case.
func hasPrefixFold(line, prefix []byte) bool {
	return len(line) >= len(prefix) && bytes.EqualFold(line[:len(prefix)], prefix)
}

// Request rendering. A request is a per-key head rendered once before
// the run, then for each operation an optional trace header, the blank
// line, and for a PUT the body.

func renderGetHead(key string) []byte {
	return []byte("GET /kv/" + key + " HTTP/1.1\r\nHost: bench\r\n")
}

func renderPutHead(key string, bodyLen int) []byte {
	return []byte("PUT /kv/" + key + " HTTP/1.1\r\nHost: bench\r\nContent-Length: " + strconv.Itoa(bodyLen) + "\r\n")
}

// traceHeader carries the load generator's request id to the handler
// wrapper on a traced run.
const traceHeader = "X-Bench-Req"

// appendRequest assembles one request into dst: head, the trace header
// when req is non-zero, the blank line, and the body.
func appendRequest(dst, head []byte, req uint64, body []byte) []byte {
	dst = append(dst, head...)
	if req != 0 {
		dst = append(dst, traceHeader+": "...)
		dst = strconv.AppendUint(dst, req, 10)
		dst = append(dst, crlf...)
	}
	dst = append(dst, crlf...)
	return append(dst, body...)
}

// parsePutVersion extracts v from the gateway's PUT reply
// {"version":v}. It returns 0 if the body has another shape.
func parsePutVersion(body []byte) uint64 {
	const prefix = `{"version":`
	body = bytes.TrimSpace(body)
	if !bytes.HasPrefix(body, []byte(prefix)) || !bytes.HasSuffix(body, []byte("}")) {
		return 0
	}
	v, err := strconv.ParseUint(string(body[len(prefix):len(body)-1]), 10, 64)
	if err != nil {
		return 0
	}
	return v
}
