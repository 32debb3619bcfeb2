package message

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/invariant"
)

// Pool recycles payload buffers between the receiving and sending sockets,
// supporting the paper's zero-copy, leak-free message lifecycle: buffers
// are checked out by Read, travel by reference through the engine, and
// return here when the last reference is released.
//
// Buffers are binned by size class — the powers of two plus their 1.5×
// midpoints (64, 96, 128, 192, 256, ...), so mixed payload sizes are not
// round-tripped through buffers up to twice the needed size (the paper's
// 5 KB payloads recycle through 6 KB buffers rather than 8 KB ones).
// Requests above the largest class fall back to plain allocation.
type Pool struct {
	classes  [numClasses]sync.Pool
	segments sync.Pool
	// live counts wire buffers and segments checked out and not yet
	// returned. It is kept only with assertions compiled in
	// (ioverlay_debug), for leak checks through Live.
	live atomic.Int64
}

// Live reports how many wire buffers and segments are checked out of the
// pool and not yet returned. It counts only with assertions compiled in
// (the ioverlay_debug build tag) and is always 0 otherwise.
func (p *Pool) Live() int64 { return p.live.Load() }

// SegmentSize is the capacity of one receive segment: sized to swallow a
// full default vnet pipe (64 KB) in a single read.
const SegmentSize = 64 << 10

// GetSegment checks a receive segment out of the pool, holding one owner
// reference for the caller.
func (p *Pool) GetSegment() *Segment {
	if invariant.Enabled {
		p.live.Add(1)
	}
	if v := p.segments.Get(); v != nil {
		s := v.(*Segment)
		s.refs.Store(1)
		return s
	}
	s := &Segment{buf: make([]byte, SegmentSize), pool: p}
	s.refs.Store(1)
	return s
}

// putSegment returns a fully released segment to the pool.
func (p *Pool) putSegment(s *Segment) {
	if invariant.Enabled {
		p.live.Add(-1)
	}
	p.segments.Put(s)
}

const (
	minClassBits = 6  // smallest class: 64 B
	maxClassBits = 22 // largest class: 4 MiB
	numClasses   = 2*(maxClassBits-minClassBits) + 1
	maxClassSize = 1 << maxClassBits
)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// classFor returns the index of the smallest size class holding n bytes,
// or -1 when n exceeds the largest class. Even indices are the powers of
// two 1<<(minClassBits+i/2); odd indices are the midpoints 1.5× the
// preceding power.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > maxClassSize {
		return -1
	}
	k := bits.Len(uint(n - 1)) // smallest power of two ≥ n is 1<<k
	if n <= 3<<(k-2) {         // midpoint class between 1<<(k-1) and 1<<k
		return 2*(k-minClassBits) - 1
	}
	return 2 * (k - minClassBits)
}

// classSize reports the buffer capacity of class c.
func classSize(c int) int {
	if c%2 == 0 {
		return 1 << (minClassBits + c/2)
	}
	return 3 << (minClassBits + (c-1)/2 - 1)
}

// getRaw returns a wire-image buffer of length HeaderSize+n — header room
// followed by an n-byte payload region — recycled when possible. Buffers
// are classed by their total (header-inclusive) size.
func (p *Pool) getRaw(n int) []byte {
	if invariant.Enabled {
		p.live.Add(1)
	}
	total := HeaderSize + n
	c := classFor(total)
	if c < 0 {
		return make([]byte, total)
	}
	if v := p.classes[c].Get(); v != nil {
		buf := *(v.(*[]byte))
		return buf[:total]
	}
	return make([]byte, total, classSize(c))
}

// putBuf returns a buffer to the pool. Buffers whose capacity does not
// match a size class exactly are dropped for the garbage collector.
func (p *Pool) putBuf(buf []byte) {
	if invariant.Enabled {
		p.live.Add(-1)
	}
	c := classFor(cap(buf))
	if c < 0 || cap(buf) != classSize(c) {
		return
	}
	full := buf[:cap(buf)]
	p.classes[c].Put(&full)
}

// Get allocates an n-byte payload from the pool and wraps it in a message
// whose Release returns the buffer here. The payload contents are
// unspecified; callers overwrite them.
func (p *Pool) Get(typ Type, sender NodeID, app, seq uint32, n int) *Msg {
	raw := p.getRaw(n)
	m := New(typ, sender, app, seq, raw[HeaderSize:])
	m.pool = p
	m.raw = raw
	m.renderHeader()
	return m
}
