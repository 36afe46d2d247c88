package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"privreg/internal/retry"
	"privreg/internal/wire"
)

// maxRetries bounds how long one request may stay refused before it counts
// as failed; the delays come from the shared internal/retry policy.
const maxRetries = 50

// answer is the server's reply to one op.
type answer struct {
	dur     time.Duration // first send to positive answer, retries included
	retries int
	applied int64
	length  int64
	theta   []float64
}

// client is one closed-loop connection: one request in flight, sent from
// bytes encoded before the run.
type client interface {
	do(o *op) (answer, error)
	close()
}

func dial(w *workload, sp *serverProc, p *payloads) (client, error) {
	if w.json {
		return dialHTTP(sp.httpAddr, p)
	}
	return dialWire(sp.wireAddr, w, p)
}

// wireClient speaks the binary protocol synchronously over one connection,
// writing pre-built frames.
type wireClient struct {
	conn net.Conn
	r    *wire.Reader
	p    *payloads
}

func dialWire(addr string, w *workload, p *payloads) (*wireClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	_ = conn.(*net.TCPConn).SetNoDelay(true)
	var b wire.Builder
	wire.AppendHello(&b, wire.Hello{MinVersion: wire.Version, MaxVersion: wire.Version})
	if _, err := conn.Write(b.Bytes()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire hello: %w", err)
	}
	c := &wireClient{conn: conn, r: wire.NewReader(conn), p: p}
	t, payload, err := c.r.Next()
	if err == nil && t != wire.FrameHelloAck {
		err = fmt.Errorf("wire: expected hello-ack, got %s", t)
	}
	if err == nil {
		var ack wire.HelloAck
		if ack, err = wire.ParseHelloAck(payload); err == nil && (int(ack.Dim) != w.dim || ack.Mechanism != w.mechanism) {
			err = fmt.Errorf("wire: server serves %s d=%d, want %s d=%d", ack.Mechanism, ack.Dim, w.mechanism, w.dim)
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *wireClient) close() { c.conn.Close() }

func (c *wireClient) do(o *op) (answer, error) {
	frame, reqID := c.p.estFrame[o.stream], uint64(estReqBase+int(o.stream))
	if o.kind == opObserve {
		frame, reqID = c.p.obsFrame[o.block], uint64(o.block+1)
	}
	start := time.Now()
	for attempt := 1; ; attempt++ {
		if _, err := c.conn.Write(frame); err != nil {
			return answer{}, err
		}
		t, payload, err := c.r.Next()
		if err != nil {
			return answer{}, err
		}
		dur := time.Since(start)
		switch t {
		case wire.FrameAck:
			a, err := wire.ParseAck(payload)
			if err == nil && a.ReqID != reqID {
				err = fmt.Errorf("wire: ack for request %d, sent %d", a.ReqID, reqID)
			}
			return answer{dur: dur, retries: attempt - 1, applied: int64(a.Applied), length: int64(a.Len)}, err
		case wire.FrameEstimateAck:
			e, err := wire.ParseEstimateAck(payload)
			if err == nil && e.ReqID != reqID {
				err = fmt.Errorf("wire: estimate ack for request %d, sent %d", e.ReqID, reqID)
			}
			return answer{dur: dur, retries: attempt - 1, length: int64(e.Len), theta: e.Estimate}, err
		case wire.FrameNack:
			n, err := wire.ParseNack(payload)
			if err != nil {
				return answer{}, err
			}
			if !n.Code.Retryable() || attempt > maxRetries {
				return answer{}, fmt.Errorf("wire: %s refused (%s): %s", streamID(int(o.stream)), n.Code, n.Msg)
			}
			retry.Backoff(attempt, time.Duration(n.RetryAfter)*time.Second)
		case wire.FrameError:
			return answer{}, wire.ParseError(payload)
		default:
			return answer{}, fmt.Errorf("wire: unexpected %s frame", t)
		}
	}
}

// httpClient speaks HTTP/1.1 keep-alive synchronously over one connection,
// writing pre-built request bytes.
type httpClient struct {
	conn net.Conn
	br   *bufio.Reader
	p    *payloads
}

func dialHTTP(addr string, p *payloads) (*httpClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	_ = conn.(*net.TCPConn).SetNoDelay(true)
	return &httpClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), p: p}, nil
}

func (c *httpClient) close() { c.conn.Close() }

func (c *httpClient) do(o *op) (answer, error) {
	start := time.Now()
	for attempt := 1; ; attempt++ {
		var err error
		if o.kind == opObserve {
			bufs := net.Buffers{c.p.obsHead[o.stream], c.p.obsBody[o.block]}
			_, err = bufs.WriteTo(c.conn)
		} else {
			_, err = c.conn.Write(c.p.estReq[o.stream])
		}
		if err != nil {
			return answer{}, err
		}
		resp, err := http.ReadResponse(c.br, nil)
		if err != nil {
			return answer{}, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return answer{}, err
		}
		dur := time.Since(start)
		switch {
		case resp.StatusCode == http.StatusOK:
			var out struct {
				Applied  int64     `json:"applied"`
				Len      int64     `json:"len"`
				Estimate []float64 `json:"estimate"`
			}
			err := json.Unmarshal(body, &out)
			return answer{dur: dur, retries: attempt - 1, applied: out.Applied, length: out.Len, theta: out.Estimate}, err
		case retry.RetryableStatus(resp.StatusCode) && attempt <= maxRetries:
			retry.Backoff(attempt, retry.HTTPRetryAfter(resp))
		default:
			return answer{}, fmt.Errorf("http %s: %s: %s", streamID(int(o.stream)), resp.Status, body)
		}
	}
}
