// Package gen is the benchmark's load generator: a minimal keep-alive
// HTTP/1.1 client that polls for its answers, closed-loop and paced
// measurement loops that keep every request's latency in memory, and
// nearest-rank percentiles over them. It owns its clock: a paced request is
// timed from the instant it was due, not from when the generator got round to
// sending it.
package gen

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// requestTimeout bounds one round trip; a request that exceeds it fails.
const requestTimeout = 10 * time.Second

// Conn is one keep-alive connection to the server.
//
// It is not net/http's client because it must not sleep. A client that blocks
// in the kernel for each answer is woken across CPUs, and on the benchmark's
// virtual machines that wake-up costs more than a memo-hit request and
// drifts with the host's load: it, not the server, then sets both latency
// and capacity. Measured on memo_reads, net/http's client (one keep-alive
// connection a worker) against this one, six alternating runs each:
// svc_p50_us 64-132 against 48-56; qps 12 700-13 600 against 24 800-30 500;
// the server's CPU share of the capacity phase (load.server_cpu_frac)
// 0.66-0.76 against 0.94-0.98 — with net/http the capacity phase measured the
// generator. So Conn reads without blocking and yields to the generator's
// other goroutines between attempts; requests are written from a reused
// buffer and answers parsed in place.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	body []byte
}

// Dial connects to addr ("127.0.0.1:port").
func Dial(addr string) (*Conn, error) {
	c := &Conn{addr: addr}
	return c, c.redial()
}

func (c *Conn) redial() error {
	c.Close()
	nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
	if err != nil {
		return fmt.Errorf("gen: dial: %w", err)
	}
	raw, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		_ = nc.Close() // nothing sent yet
		return fmt.Errorf("gen: dial: %w", err)
	}
	c.c = nc
	if c.br == nil {
		c.br = bufio.NewReaderSize(pollReader{raw}, 32<<10)
	} else {
		c.br.Reset(pollReader{raw})
	}
	return nil
}

// pollReader reads a socket without ever parking the goroutine in the
// network poller: while nothing has arrived it yields and tries again.
type pollReader struct{ raw syscall.RawConn }

func (p pollReader) Read(b []byte) (int, error) {
	var deadline time.Time
	for spins := 1; ; spins++ {
		var n int
		var rerr error
		// The callback returns true whatever it read, so RawConn.Read never
		// waits for readiness.
		if err := p.raw.Read(func(fd uintptr) bool {
			n, rerr = syscall.Read(int(fd), b)
			return true
		}); err != nil {
			return 0, err
		}
		switch {
		case rerr == syscall.EAGAIN || rerr == syscall.EINTR:
			if spins%1024 == 0 { // the clock is read rarely: it costs as much as the read
				if deadline.IsZero() {
					deadline = time.Now().Add(requestTimeout)
				} else if time.Now().After(deadline) {
					return 0, fmt.Errorf("gen: no answer within %s", requestTimeout)
				}
			}
			runtime.Gosched()
		case rerr != nil:
			return 0, fmt.Errorf("gen: read: %w", rerr)
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

// Close closes the connection; Do dials afresh when called again.
func (c *Conn) Close() {
	if c.c != nil {
		_ = c.c.Close() // nothing buffered for write; the read side is abandoned
		c.c = nil
	}
}

// Do sends one POST with a JSON body and returns the status and the answer's
// body, which is valid until the next call. After an error the connection is
// closed and the next call reconnects.
func (c *Conn) Do(path string, body []byte) (int, []byte, error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	status, resp, err := c.roundTrip(path, body)
	if err != nil {
		c.Close()
	}
	return status, resp, err
}

func (c *Conn) roundTrip(path string, body []byte) (int, []byte, error) {
	if err := c.c.SetWriteDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	out := append(c.out[:0], "POST "...)
	out = append(out, path...)
	out = append(out, " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
	out = strconv.AppendInt(out, int64(len(body)), 10)
	out = append(out, "\r\n\r\n"...)
	out = append(out, body...)
	c.out = out
	if _, err := c.c.Write(out); err != nil {
		return 0, nil, err
	}
	return c.readResponse()
}

var (
	hdrContentLength = []byte("content-length:")
	errMalformed     = errors.New("gen: malformed HTTP response")
	// The benchmark server answers every request from one buffered write, so
	// net/http frames it with a Content-Length; an answer framed any other way
	// (chunked, or ended by closing) is not one the benchmark produces.
	errNoLength = errors.New("gen: answer has no Content-Length")
)

func (c *Conn) readResponse() (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, errMalformed
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, errMalformed
	}
	length := -1
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		if n := len(hdrContentLength); len(line) >= n && bytes.EqualFold(line[:n], hdrContentLength) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[n:])))
			if err != nil || length < 0 {
				return 0, nil, errMalformed
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoLength
	}
	if cap(c.body) < length {
		c.body = make([]byte, 0, 2*length)
	}
	c.body = c.body[:length]
	if _, err := io.ReadFull(c.br, c.body); err != nil {
		return 0, nil, err
	}
	return status, c.body, nil
}
