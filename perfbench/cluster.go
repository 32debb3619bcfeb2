package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/vnet"
)

// dataType is the message type every generated message carries.
const dataType = message.FirstDataType

// epoch is the process-wide clock origin: due stamps and span times are
// nanoseconds since epoch on the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// mix is splitmix64's finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pattern returns the two words written at the payload's prefix and
// suffix for message (app, seq) under the run seed.
func pattern(seed uint64, app, seq uint32) (uint64, uint64) {
	k1 := mix(seed ^ uint64(app)<<32 ^ uint64(seq))
	return k1, mix(k1)
}

// stamp writes the due time into p's first 8 bytes and the seeded
// pattern into the 16 bytes after it and the last 16 bytes. The rest of
// the payload is left as the pool hands it out, so stamping stays cheap
// at every message size.
func stamp(p []byte, seed uint64, app, seq uint32, due int64) {
	k1, k2 := pattern(seed, app, seq)
	binary.LittleEndian.PutUint64(p[0:], uint64(due))
	binary.LittleEndian.PutUint64(p[8:], k1)
	binary.LittleEndian.PutUint64(p[16:], k2)
	n := len(p)
	binary.LittleEndian.PutUint64(p[n-16:], ^k2)
	binary.LittleEndian.PutUint64(p[n-8:], ^k1)
}

// patternOK checks the prefix and suffix written by stamp.
func patternOK(p []byte, seed uint64, app, seq uint32) bool {
	k1, k2 := pattern(seed, app, seq)
	n := len(p)
	return binary.LittleEndian.Uint64(p[8:]) == k1 &&
		binary.LittleEndian.Uint64(p[16:]) == k2 &&
		binary.LittleEndian.Uint64(p[n-16:]) == ^k2 &&
		binary.LittleEndian.Uint64(p[n-8:]) == ^k1
}

// sink checks and counts the messages of one (sender, app) flow. consume
// runs on the sink engine's goroutine; the counters are atomics so the
// measuring goroutine can read them while the run is live.
type sink struct {
	app      uint32
	from     message.NodeID
	size     int
	seed     uint64
	reliable bool
	latEvery uint32
	wake     *waker // wakes a closed-loop generator waiting for credit

	next uint32 // expected seq; sink goroutine only

	received atomic.Int64 // every arrival, valid or not
	valid    atomic.Int64 // in sequence, right length, sender and pattern
	bytes    atomic.Int64 // payload bytes of valid messages
	gaps     atomic.Int64 // seqs skipped (datagram lane only)
	disorder atomic.Int64 // arrivals behind the expected seq (datagram lane only)
	bad      atomic.Int64 // correctness failures
	firstAt  atomic.Int64 // ns since epoch of the first arrival, 0 before

	recording atomic.Bool
	mu        sync.Mutex
	lats      []int64 // sampled latencies (ns) while recording
	errs      []string
}

// fail records a correctness failure.
func (s *sink) fail(format string, args ...any) {
	s.bad.Add(1)
	s.mu.Lock()
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf("sink app %d: ", s.app)+fmt.Sprintf(format, args...))
	}
	s.mu.Unlock()
}

// consume validates one delivered message.
func (s *sink) consume(m *message.Msg, now int64) {
	s.received.Add(1)
	s.firstAt.CompareAndSwap(0, now)
	s.wake.wake()
	p, seq := m.Payload(), m.Seq()
	var bad string
	switch {
	case len(p) != s.size:
		bad = fmt.Sprintf("length %d, want %d", len(p), s.size)
	case m.Sender() != s.from:
		bad = fmt.Sprintf("sender %s, want %s", m.Sender(), s.from)
	case !patternOK(p, s.seed, s.app, seq):
		bad = "payload pattern mismatch"
	}
	if bad != "" {
		s.fail("seq %d: %s", seq, bad)
		if seq >= s.next {
			s.next = seq + 1 // one defect, one failure: do not also report a gap
		}
		return
	}
	switch {
	case seq == s.next:
	case s.reliable:
		s.fail("seq %d arrived, want %d", seq, s.next)
		s.next = seq + 1
		return
	case seq > s.next:
		s.gaps.Add(int64(seq - s.next))
	default:
		s.disorder.Add(1)
		return
	}
	s.next = seq + 1
	s.valid.Add(1)
	s.bytes.Add(int64(len(p)))
	if s.recording.Load() && seq%s.latEvery == 0 {
		due := int64(binary.LittleEndian.Uint64(p))
		s.mu.Lock()
		s.lats = append(s.lats, now-due)
		s.mu.Unlock()
	}
}

// takeLats returns and clears the recorded latency samples.
func (s *sink) takeLats() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.lats
	s.lats = nil
	return l
}

func (s *sink) errors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.errs...)
}

// node is the benchmark's Algorithm: it forwards each data message along
// the static route for its app, or hands it to the app's sink.
type node struct {
	idx    int
	api    engine.API
	routes map[uint32]message.NodeID
	sinks  map[uint32]*sink
	tr     *tracer // nil in untimed-layer runs
}

func (n *node) Attach(api engine.API) { n.api = api }

func (n *node) Process(m *message.Msg) engine.Verdict {
	if m.Type() != dataType {
		return engine.Done
	}
	start := nowNs()
	app, seq := m.App(), m.Seq()
	traced := n.tr != nil && n.tr.sampled(seq)
	if s := n.sinks[app]; s != nil {
		s.consume(m, start)
	} else if dest, ok := n.routes[app]; ok {
		if traced {
			t0 := nowNs()
			n.api.Send(m, dest)
			n.tr.add(span{kind: spanSend, node: int16(n.idx), start: t0, end: nowNs(), app: app, seq: seq})
		} else {
			n.api.Send(m, dest)
		}
	}
	if traced {
		n.tr.add(span{kind: spanProcess, node: int16(n.idx), start: start, end: nowNs(), app: app, seq: seq})
	}
	return engine.Done
}

// source is one generator-fed origin of a flow.
type source struct {
	eng  *engine.Engine
	idx  int
	app  uint32
	dest message.NodeID
	sink *sink

	submitted int64        // generator goroutine only
	sent      atomic.Int64 // messages handed to Send on the engine goroutine
}

// cluster is one booted topology.
type cluster struct {
	w       *workload
	engines []*engine.Engine
	nodes   []*node
	ids     []message.NodeID
	sources []*source
	sinks   []*sink
	net     *vnet.Network
	wrapped *wrapStats
}

// stop tears every engine down.
func (c *cluster) stop() {
	for _, e := range c.engines {
		if e != nil {
			e.Stop()
		}
	}
	if c.net != nil {
		c.net.Close()
	}
}

// udpRcvBuf is the receive buffer asked for on every UDP endpoint. The
// default (208 KiB here) covers a reader stall of ~40 ms at
// relay_udp_paced's rate; on a busy host longer stalls happened and the
// kernel dropped datagrams, so the count of failed messages followed the
// host. 4 MiB covers about a second; the kernel caps the request at
// net.core.rmem_max.
const udpRcvBuf = 4 << 20

// udpBuffered is the TCP transport with a larger receive buffer on its
// UDP endpoints. It returns the *net.UDPConn itself, so the engine's
// datagram path is the same as over engine.TCP.
type udpBuffered struct {
	engine.TCP
	rcvbuf int
}

func (u udpBuffered) ListenPacket(addr string) (net.PacketConn, error) {
	pc, err := u.TCP.ListenPacket(addr)
	if err != nil {
		return nil, err
	}
	if err := pc.(*net.UDPConn).SetReadBuffer(u.rcvbuf); err != nil {
		_ = pc.Close()
		return nil, fmt.Errorf("udp receive buffer: %w", err)
	}
	return pc, nil
}

// freeIDs picks n loopback ports that are free for both TCP and UDP.
func freeIDs(n int) ([]message.NodeID, error) {
	ids := make([]message.NodeID, 0, n)
	for len(ids) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("pick port: %w", err)
		}
		port := l.Addr().(*net.TCPAddr).Port
		pc, perr := net.ListenPacket("udp", fmt.Sprintf("127.0.0.1:%d", port))
		_ = l.Close()
		if perr != nil {
			continue
		}
		_ = pc.Close()
		ids = append(ids, message.MakeID("127.0.0.1", uint32(port)))
	}
	return ids, nil
}

// boot builds and starts the workload's engines, downstream first so
// every listener exists before its upstream dials. tr, when non-nil,
// wraps every transport seam and records spans.
func boot(w *workload, seed uint64, tr *tracer, wk *waker) (*cluster, error) {
	c := &cluster{w: w}
	var base engine.Transport
	switch w.Transport {
	case viaVNet:
		c.net = vnet.New()
		base = engine.VNet{Net: c.net}
		for i := 0; i < w.Nodes; i++ {
			c.ids = append(c.ids, message.MakeID(fmt.Sprintf("10.0.0.%d", i+1), 7000))
		}
	default:
		base = engine.TCP{}
		if w.Transport == viaUDP {
			base = udpBuffered{rcvbuf: udpRcvBuf}
		}
		ids, err := freeIDs(w.Nodes)
		if err != nil {
			return nil, err
		}
		c.ids = ids
	}
	c.nodes = make([]*node, w.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &node{idx: i, routes: map[uint32]message.NodeID{}, sinks: map[uint32]*sink{}, tr: tr}
	}
	for _, app := range w.apps() {
		src := w.sourceOf(app)
		end := src
		for d := w.downstreamOf(end, app); d >= 0; d = w.downstreamOf(end, app) {
			c.nodes[end].routes[app] = c.ids[d]
			end = d
		}
		s := &sink{app: app, from: c.ids[src], size: w.MsgSize, seed: seed, reliable: w.reliable(),
			latEvery: uint32(w.LatEvery), wake: wk}
		c.nodes[end].sinks[app] = s
		c.sinks = append(c.sinks, s)
		c.sources = append(c.sources, &source{idx: src, app: app, dest: c.ids[w.downstreamOf(src, app)], sink: s})
	}
	if tr != nil {
		c.wrapped = &wrapStats{}
	}
	c.engines = make([]*engine.Engine, w.Nodes)
	for i := w.Nodes - 1; i >= 0; i-- {
		var t engine.Transport = base
		if tr != nil {
			t = &tracedTransport{inner: base, node: int16(i), tr: tr, st: c.wrapped}
		}
		e, err := engine.New(engine.Config{
			ID:           c.ids[i],
			Transport:    t,
			Algorithm:    c.nodes[i],
			UpBW:         w.upBW(),
			DatagramData: w.Transport == viaUDP,
		})
		if err == nil {
			err = e.Start()
		}
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("boot node %d: %w", i, err)
		}
		c.engines[i] = e
	}
	for _, s := range c.sources {
		s.eng = c.engines[s.idx]
	}
	return c, nil
}
