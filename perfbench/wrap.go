package main

import (
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// The optional methods the engine type-asserts on its connections
// (internal/engine link.go and dgram.go). A wrapper must implement one of
// them exactly when the value it wraps does, or the engine would take a
// different write or read path under tracing than without it.
type (
	buffersWriter     interface{ WriteBuffers([][]byte) (int64, error) }
	packetBatchWriter interface {
		WriteToBatch([][]byte, net.Addr) (int, error)
	}
	packetBatchReader interface{ TryReadDgrams([]vnet.Dgram) int }
)

// ioStats counts one substrate's traffic in the traced run's window.
type ioStats struct {
	writes, writeNs, writeBytes, writeMsgs atomic.Int64
	reads, readNs, readBytes, readMsgs     atomic.Int64
}

// wrapStats holds the per-substrate counters of one traced cluster.
type wrapStats struct {
	vnet, tcp, udp ioStats
}

// tracedTransport wraps an engine.Transport so every connection it
// yields is timed and its message headers are attributed to spans.
type tracedTransport struct {
	inner engine.Transport
	node  int16
	tr    *tracer
	st    *wrapStats
}

var (
	_ engine.Transport       = (*tracedTransport)(nil)
	_ engine.PacketTransport = (*tracedTransport)(nil)
)

func (t *tracedTransport) stats() *ioStats {
	if _, ok := t.inner.(engine.VNet); ok {
		return &t.st.vnet
	}
	return &t.st.tcp
}

func (t *tracedTransport) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: l, t: t}, nil
}

func (t *tracedTransport) DialFrom(local, addr string, timeout time.Duration) (net.Conn, error) {
	c, err := t.inner.DialFrom(local, addr, timeout)
	if err != nil {
		return nil, err
	}
	return t.wrapConn(c), nil
}

func (t *tracedTransport) ListenPacket(addr string) (net.PacketConn, error) {
	pc, err := t.inner.(engine.PacketTransport).ListenPacket(addr)
	if err != nil {
		return nil, err
	}
	return t.wrapPacket(pc), nil
}

func (t *tracedTransport) PacketAddr(addr string) (net.Addr, error) {
	return t.inner.(engine.PacketTransport).PacketAddr(addr)
}

// wrapConn returns a traced conn with exactly c's optional methods.
func (t *tracedTransport) wrapConn(c net.Conn) net.Conn {
	tc := &tracedConn{Conn: c, node: t.node, tr: t.tr, st: t.stats()}
	if bw, ok := c.(buffersWriter); ok {
		return &tracedVecConn{tracedConn: tc, bw: bw}
	}
	return tc
}

// wrapPacket returns a traced packet conn with exactly pc's optional
// methods.
func (t *tracedTransport) wrapPacket(pc net.PacketConn) net.PacketConn {
	tp := &tracedPacket{PacketConn: pc, node: t.node, tr: t.tr, st: &t.st.udp, open: map[uint32]msgKey{}}
	bw, okW := pc.(packetBatchWriter)
	br, okR := pc.(packetBatchReader)
	switch {
	case okW && okR:
		return &tracedBatchPacket{tracedPacket: tp, bw: bw, br: br}
	case okW || okR:
		// No packet conn offers only half of the batch pair; refuse to
		// guess rather than silently hide a fast path.
		panic("perfbench: packet conn with a partial batch method set")
	}
	return tp
}

type tracedListener struct {
	net.Listener
	t *tracedTransport
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapConn(c), nil
}

// walker follows the message framing of one direction of a stream: a
// 24-byte header, then the payload it declares. It finds headers across
// write and read chunk boundaries.
type walker struct {
	hdr  [message.HeaderSize]byte
	have int
	skip int
}

// walk advances over b and calls fn for every data message header that
// completes inside it.
func (w *walker) walk(b []byte, fn func(app, seq uint32)) {
	for len(b) > 0 {
		if w.skip > 0 {
			n := min(w.skip, len(b))
			w.skip -= n
			b = b[n:]
			continue
		}
		n := copy(w.hdr[w.have:], b)
		w.have += n
		b = b[n:]
		if w.have < message.HeaderSize {
			return
		}
		w.have = 0
		w.skip = int(binary.BigEndian.Uint32(w.hdr[20:24]))
		if message.Type(binary.BigEndian.Uint32(w.hdr[0:4])) == dataType {
			fn(binary.BigEndian.Uint32(w.hdr[12:16]), binary.BigEndian.Uint32(w.hdr[16:20]))
		}
	}
}

// tracedConn times a stream connection's reads and writes and records a
// span for each one that carries a sampled message header.
type tracedConn struct {
	net.Conn
	node int16
	tr   *tracer
	st   *ioStats

	wmu    sync.Mutex // one writer at a time owns the write walker
	ww     walker
	rw     walker // receiver goroutine only
	wcarry []msgKey
	rcarry []msgKey
}

// observe walks chunk with w, counting data headers into *msgs and
// collecting sampled ones into *carry.
func (c *tracedConn) observe(w *walker, chunk []byte, msgs *int64, carry *[]msgKey) {
	w.walk(chunk, func(app, seq uint32) {
		*msgs++
		if c.tr.sampled(seq) {
			*carry = append(*carry, msgKey{app, seq})
		}
	})
}

func (c *tracedConn) Write(b []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	t0 := nowNs()
	n, err := c.Conn.Write(b)
	c.afterWrite(t0, [][]byte{b[:n]}, int64(n))
	return n, err
}

// afterWrite accounts one completed write of the given chunks. wmu held.
func (c *tracedConn) afterWrite(t0 int64, chunks [][]byte, n int64) {
	t1 := nowNs()
	var msgs int64
	c.wcarry = c.wcarry[:0]
	for _, ch := range chunks {
		c.observe(&c.ww, ch, &msgs, &c.wcarry)
	}
	if !c.tr.on.Load() {
		return
	}
	c.st.writes.Add(1)
	c.st.writeNs.Add(t1 - t0)
	c.st.writeBytes.Add(n)
	c.st.writeMsgs.Add(msgs)
	if len(c.wcarry) > 0 {
		c.tr.addCarrying(span{kind: spanWrite, node: c.node, start: t0, end: t1}, c.wcarry)
	}
}

func (c *tracedConn) Read(b []byte) (int, error) {
	t0 := nowNs()
	n, err := c.Conn.Read(b)
	t1 := nowNs()
	var msgs int64
	c.rcarry = c.rcarry[:0]
	c.observe(&c.rw, b[:n], &msgs, &c.rcarry)
	if c.tr.on.Load() {
		c.st.reads.Add(1)
		c.st.readNs.Add(t1 - t0)
		c.st.readBytes.Add(int64(n))
		c.st.readMsgs.Add(msgs)
		if len(c.rcarry) > 0 {
			c.tr.addCarrying(span{kind: spanRead, node: c.node, start: t0, end: t1}, c.rcarry)
		}
	}
	return n, err
}

// tracedVecConn adds the vectored write path for conns that have it.
type tracedVecConn struct {
	*tracedConn
	bw buffersWriter
}

func (c *tracedVecConn) WriteBuffers(bufs [][]byte) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	t0 := nowNs()
	n, err := c.bw.WriteBuffers(bufs)
	// Walk exactly the bytes that landed.
	chunks, left := bufs, n
	for i, b := range bufs {
		if int64(len(b)) >= left {
			chunks = append(bufs[:i:i], b[:left])
			break
		}
		left -= int64(len(b))
	}
	c.afterWrite(t0, chunks, n)
	return n, err
}

// tracedPacket times a datagram endpoint's packets. The data lane frames
// each message into one or more datagrams; the message header rides in
// fragment 0, so a write span is recorded when a sampled message's last
// fragment leaves, and a read span when its fragment 0 arrives.
type tracedPacket struct {
	net.PacketConn
	node int16
	tr   *tracer
	st   *ioStats

	mu   sync.Mutex        // senders share the endpoint
	open map[uint32]msgKey // sampled messages with fragments still to write
}

// dgramMsg decodes the frame header of datagram b and, for fragment 0 of
// a data message, the message it starts.
func dgramMsg(b []byte) (h message.DgramHeader, k msgKey, isFirst bool, ok bool) {
	h, chunk, err := message.DecodeDgram(b)
	if err != nil {
		return h, k, false, false
	}
	if h.FragIdx != 0 || len(chunk) < message.HeaderSize ||
		message.Type(binary.BigEndian.Uint32(chunk[0:4])) != dataType {
		return h, k, false, true
	}
	return h, msgKey{binary.BigEndian.Uint32(chunk[12:16]), binary.BigEndian.Uint32(chunk[16:20])}, true, true
}

// wrote accounts datagram b written between t0 and t1.
func (p *tracedPacket) wrote(b []byte, t0, t1 int64) {
	h, k, first, ok := dgramMsg(b)
	if !ok || !p.tr.on.Load() {
		return
	}
	p.st.writes.Add(1)
	p.st.writeNs.Add(t1 - t0)
	p.st.writeBytes.Add(int64(len(b)))
	if first {
		p.st.writeMsgs.Add(1)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if first && p.tr.sampled(k.seq) {
		p.open[h.MsgID] = k
	}
	if h.FragIdx == h.FragCnt-1 {
		if k, ok := p.open[h.MsgID]; ok {
			delete(p.open, h.MsgID)
			p.tr.addCarrying(span{kind: spanPWrite, node: p.node, start: t0, end: t1}, []msgKey{k})
		}
	}
}

// read accounts datagram b read between t0 and t1.
func (p *tracedPacket) read(b []byte, t0, t1 int64) {
	_, k, first, ok := dgramMsg(b)
	if !ok || !p.tr.on.Load() {
		return
	}
	p.st.reads.Add(1)
	p.st.readNs.Add(t1 - t0)
	p.st.readBytes.Add(int64(len(b)))
	if first {
		p.st.readMsgs.Add(1)
		if p.tr.sampled(k.seq) {
			p.tr.addCarrying(span{kind: spanPRead, node: p.node, start: t0, end: t1}, []msgKey{k})
		}
	}
}

func (p *tracedPacket) WriteTo(b []byte, to net.Addr) (int, error) {
	t0 := nowNs()
	n, err := p.PacketConn.WriteTo(b, to)
	if err == nil {
		p.wrote(b, t0, nowNs())
	}
	return n, err
}

func (p *tracedPacket) ReadFrom(b []byte) (int, net.Addr, error) {
	t0 := nowNs()
	n, from, err := p.PacketConn.ReadFrom(b)
	if err == nil {
		p.read(b[:n], t0, nowNs())
	}
	return n, from, err
}

// tracedBatchPacket adds the batch paths for endpoints that have them.
type tracedBatchPacket struct {
	*tracedPacket
	bw packetBatchWriter
	br packetBatchReader
}

func (p *tracedBatchPacket) WriteToBatch(bufs [][]byte, to net.Addr) (int, error) {
	t0 := nowNs()
	n, err := p.bw.WriteToBatch(bufs, to)
	t1 := nowNs()
	for _, b := range bufs[:n] {
		p.wrote(b, t0, t1)
	}
	return n, err
}

func (p *tracedBatchPacket) TryReadDgrams(dst []vnet.Dgram) int {
	t0 := nowNs()
	n := p.br.TryReadDgrams(dst)
	t1 := nowNs()
	for _, d := range dst[:n] {
		p.read(d.Data, t0, t1)
	}
	return n
}
