package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"crdtsmr/internal/transport"
	"crdtsmr/internal/wire"
)

// Span names. A traced run records spans only from the benchmark's own
// files, by wrapping the layers' public seams: the generator's calls, the
// client's dialer, the server's listener, and the replica transport's
// Conn and Handler.
const (
	spCall        uint8 = iota // client.call: one generator call through the client
	spProbeQuery               // cluster.query: Node.QueryKey probe
	spProbeUpdate              // cluster.update: Node.UpdateKey probe
	spClientFrame              // wire.client_frame: request write begins → response read
	spServerFrame              // wire.server_frame: request read → response write begins
	spOneway                   // transport.oneway: Conn.Send → Handler call on the peer
	spHandler                  // transport.handler: time inside the node's Handler
)

var spanNames = [...]string{"client.call", "cluster.query", "cluster.update", "wire.client_frame", "wire.server_frame", "transport.oneway", "transport.handler"}

// span is one traced interval. req identifies the request: the
// generator's op sequence, a frame's connection and request ID (see
// tracedConn.req; the same on both ends of the connection), or a
// replica message's hash. parent is the req of the enclosing span, 0
// when the seam gives no way to know it.
type span struct {
	start, end  int64 // ns since the run's epoch
	parent, req uint64
	name        uint8
	op          uint8 // wire op (wire.OpQuery, wire.OpUpdate) for calls and frames
}

// tracer collects spans while on. Spans live in memory until the run
// ends.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans chunks[span]

	reqBytes, respBytes atomic.Uint64 // client frames, length prefix included
	msgs, msgBytes      atomic.Uint64 // replica messages sent

	opSeq   atomic.Uint64 // req of the next generator span
	seed    maphash.Seed
	pendMu  sync.Mutex
	pending map[msgKey][]int64 // send times of replica messages not yet handled
}

type msgKey struct {
	from, to uint8
	hash     uint64
}

func newTracer() *tracer {
	return &tracer{seed: maphash.MakeSeed(), pending: make(map[msgKey][]int64)}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans.add(s)
	t.mu.Unlock()
}

// eachSpan calls f for every recorded span. Call it only after recording
// stopped.
func (t *tracer) eachSpan(f func(*span)) { t.spans.each(f) }

// op records a generator operation: a call through the client, or a
// probe straight to a node.
func (t *tracer) op(r *opRec) {
	if !t.on.Load() {
		return
	}
	s := span{start: r.start, end: r.end, req: t.opSeq.Add(1), op: wire.OpUpdate}
	if isRead(r.kind) {
		s.op = wire.OpQuery
	}
	switch r.kind {
	case opProbeRead:
		s.name = spProbeQuery
	case opProbeUpdate:
		s.name = spProbeUpdate
	default:
		s.name = spCall
	}
	t.record(s)
}

// --- client frames: net.Conn wrappers on both ends of each client
// connection, one installed with client.WithDialer, the other by the
// listener given to server.Serve ---

type tracedDialer struct {
	t *tracer
	d net.Dialer
}

func (t *tracer) dialer() *tracedDialer { return &tracedDialer{t: t} }

func (d *tracedDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := d.d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return d.t.wrapClientConn(c, false), nil
}

type tracedListener struct {
	net.Listener
	t *tracer
}

func (t *tracer) wrapListener(ln net.Listener) net.Listener { return tracedListener{ln, t} }

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapClientConn(c, true), nil
}

// tracedConn times each request of one client connection. On the client
// end a frame runs from the Write call that carries the request's first
// byte to the Read that completes its response; on the server end, from
// the Read that completes the request to the Write call that carries
// the first byte of its response.
type tracedConn struct {
	net.Conn
	t               *tracer
	server          bool   // the server end: requests are read, responses written
	conn            uint64 // client port<<16 | server port, the same on both ends
	wr, rd          frameScanner
	writeFn, readFn func(op byte, id uint64, size int, began, now int64)

	mu     sync.Mutex
	starts map[uint64]int64
}

func (t *tracer) wrapClientConn(c net.Conn, server bool) *tracedConn {
	client, srv := c.LocalAddr(), c.RemoteAddr()
	if server {
		client, srv = srv, client
	}
	tc := &tracedConn{Conn: c, t: t, server: server, conn: connPort(client)<<16 | connPort(srv), starts: make(map[uint64]int64)}
	tc.writeFn, tc.readFn = tc.request, tc.response
	if server {
		tc.writeFn, tc.readFn = tc.response, tc.request
	}
	return tc
}

func connPort(a net.Addr) uint64 {
	if ta, ok := a.(*net.TCPAddr); ok {
		return uint64(ta.Port)
	}
	return 0
}

// req identifies a request by its connection and its ID, which the
// client numbers from 1 on each connection.
func (c *tracedConn) req(id uint64) uint64 { return c.conn<<32 | id&(1<<32-1) }

func (c *tracedConn) Write(p []byte) (int, error) {
	c.wr.feed(p, now(), c.writeFn)
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.feed(p[:n], now(), c.readFn)
	return n, err
}

func (c *tracedConn) request(op byte, id uint64, size int, began, now int64) {
	if id == 0 || !c.t.on.Load() {
		return
	}
	if c.server {
		began = now
	} else {
		c.t.reqBytes.Add(uint64(size))
	}
	c.mu.Lock()
	c.starts[id] = began
	c.mu.Unlock()
}

func (c *tracedConn) response(op byte, id uint64, size int, began, now int64) {
	c.mu.Lock()
	start, ok := c.starts[id]
	delete(c.starts, id)
	c.mu.Unlock()
	if !ok || !c.t.on.Load() {
		return
	}
	s := span{name: spClientFrame, start: start, end: now, req: c.req(id), op: op &^ wire.RespBit}
	if c.server {
		s.name, s.end, s.parent = spServerFrame, began, s.req
	} else {
		c.t.respBytes.Add(uint64(size))
	}
	c.t.record(s)
}

// frameScanner follows the length-prefixed client frames of one direction
// of a connection ([uvarint len][version][op][uvarint id]...) across
// arbitrary read and write boundaries.
type frameScanner struct {
	lenBuf  [binary.MaxVarintLen64]byte
	nLen    int
	inFrame bool
	remain  uint64
	size    int
	hdr     [2 + binary.MaxVarintLen64]byte
	nHdr    int
	began   int64
}

// feed scans p, seen at time now, and calls done for every frame p
// completes with the frame's op, request ID, size and the time its first
// byte was seen.
func (s *frameScanner) feed(p []byte, now int64, done func(op byte, id uint64, size int, began, now int64)) {
	for len(p) > 0 {
		if !s.inFrame {
			if s.nLen == 0 {
				s.began = now
			}
			b := p[0]
			p = p[1:]
			s.lenBuf[s.nLen] = b
			s.nLen++
			if b < 0x80 || s.nLen == len(s.lenBuf) {
				n, _ := binary.Uvarint(s.lenBuf[:s.nLen])
				s.remain, s.size = n, s.nLen+int(n)
				s.nLen, s.nHdr, s.inFrame = 0, 0, true
			}
		}
		if s.inFrame {
			take := min(uint64(len(p)), s.remain)
			if s.nHdr < len(s.hdr) {
				s.nHdr += copy(s.hdr[s.nHdr:], p[:take])
			}
			p = p[take:]
			s.remain -= take
			if s.remain == 0 {
				s.inFrame = false
				var op byte
				var id uint64
				if s.nHdr >= 3 {
					op = s.hdr[1]
					id, _ = binary.Uvarint(s.hdr[2:s.nHdr])
				}
				done(op, id, s.size, s.began, now)
			}
		}
	}
}

// --- replica messages: wrappers of the transport.Conn and Handler ---

func nodeIndex(id transport.NodeID) uint8 {
	for i, n := range nodeIDs {
		if n == id {
			return uint8(i)
		}
	}
	return uint8(len(nodeIDs))
}

type meshConn struct {
	transport.Conn
	t    *tracer
	from uint8
}

func (t *tracer) wrapConn(c transport.Conn) transport.Conn {
	return &meshConn{Conn: c, t: t, from: nodeIndex(c.ID())}
}

// Send notes the send time under the message's hash before handing it to
// the transport, so the receiving Handler can time the one-way trip.
func (m *meshConn) Send(to transport.NodeID, payload []byte) {
	if m.t.on.Load() {
		m.t.msgs.Add(1)
		m.t.msgBytes.Add(uint64(len(payload)))
		k := msgKey{m.from, nodeIndex(to), maphash.Bytes(m.t.seed, payload)}
		now := now()
		m.t.pendMu.Lock()
		m.t.pending[k] = append(m.t.pending[k], now)
		m.t.pendMu.Unlock()
	}
	m.Conn.Send(to, payload)
}

func (t *tracer) wrapHandler(self transport.NodeID, h transport.Handler) transport.Handler {
	to := nodeIndex(self)
	return func(from transport.NodeID, payload []byte) {
		if !t.on.Load() {
			h(from, payload)
			return
		}
		start := now()
		k := msgKey{nodeIndex(from), to, maphash.Bytes(t.seed, payload)}
		t.pendMu.Lock()
		sent, ok := int64(0), false
		if q := t.pending[k]; len(q) > 0 {
			sent, ok = q[0], true
			if len(q) == 1 {
				delete(t.pending, k)
			} else {
				t.pending[k] = q[1:]
			}
		}
		t.pendMu.Unlock()
		h(from, payload)
		end := now()
		if ok {
			t.record(span{name: spOneway, start: sent, end: start, req: k.hash})
		}
		t.record(span{name: spHandler, start: start, end: end, req: k.hash, parent: k.hash})
	}
}

// writeSpans writes every span as gzipped tab-separated text:
// name, start ns, end ns, parent, req.
func writeSpans(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is valid
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name\tstart_ns\tend_ns\tparent\treq")
	t.eachSpan(func(s *span) {
		fmt.Fprintf(bw, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.name], s.start, s.end, s.parent, s.req)
	})
	err = bw.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
