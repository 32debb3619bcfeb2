package vnet

import (
	"errors"
	"io"
	"sync"
	"time"
)

// errTimeout satisfies net.Error for deadline expiry.
type errTimeout struct{}

func (errTimeout) Error() string   { return "vnet: i/o timeout" }
func (errTimeout) Timeout() bool   { return true }
func (errTimeout) Temporary() bool { return true }

// ErrPipeClosed is returned by operations on a closed pipe endpoint.
var ErrPipeClosed = errors.New("vnet: pipe closed")

// Frame is one whole wire image handed across a connection by reference
// (Conn.WriteFrames, Conn.ReadFrames). Owner holds one reference on the
// bytes: whoever holds the Frame releases it exactly once, and Data must
// not be written to by anyone while a Frame for it is alive. Owner has
// the same shape as Dgram.Owner, so a reader can hand it on to a message
// without this package knowing the message type. A Frame written without
// an Owner is copied, as WriteBuffers would.
type Frame struct {
	Data  []byte
	Owner interface{ Release() }
}

// watermark records that all bytes up to total become readable at `at`,
// implementing one-way propagation latency.
type watermark struct {
	total int64
	at    time.Time
}

// chunk is one run of queued bytes. A copied run (owner nil) lives in the
// pipe's ring, starting where the previous copied run ended; consecutive
// copied writes extend one run. A frame (owner set) is a wire image queued
// by reference, released through owner once read or discarded.
type chunk struct {
	data  []byte                 // the frame's bytes; nil for a copied run
	owner interface{ Release() } // the frame's reference; nil for a copied run
	size  int                    // bytes admitted against the capacity
	off   int                    // bytes already read
	// whole marks a frame ReadFrames may hand on: nothing of it has been
	// read and its writer did not give up part way. Admission can still be
	// in progress (size < len(data)).
	whole bool
}

// pipe is a bounded, single-direction byte stream between two endpoints of
// a virtual connection. Its bounded buffer is what yields TCP-like
// back-pressure: writers block when the reader side falls behind, exactly
// the property the paper's engine relies on for the back-pressure effect
// of small buffers. The buffer is a FIFO of chunks: bytes written with
// Write/writeBuffers are copied into a ring, frames written with
// writeFrames are queued by reference. Either way every queued byte counts
// against the same capacity, so a writer blocks at the same byte count
// whichever way it writes.
type pipe struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	// Waiter counts gate every condvar broadcast: the data path signals a
	// pipe far more often than anyone sleeps on it, and an ungated
	// Broadcast per transfer thrashes futexes. A waiter increments its
	// count under mu before sleeping, so gated wakeups can never be lost.
	readWaiters  int
	writeWaiters int

	capacity int
	length   int // queued unread bytes, over all chunks

	// chunks[first:] is the FIFO; the backing array is reused.
	chunks []chunk
	first  int

	// ring stores the copied runs, allocated on the first copied write.
	// Copied bytes never exceed the capacity, so one ring of that size
	// holds them all.
	ring     []byte
	ringHead int // ring offset of the oldest unread copied byte
	ringLen  int // unread copied bytes

	// writing serializes write calls, so each one's bytes are contiguous
	// in the stream and a frame admitted in pieces stays the FIFO's tail.
	writing bool

	// latency, when positive, delays the visibility of written bytes.
	latency      time.Duration
	totalWritten int64
	totalRead    int64
	marks        []watermark

	readDeadline  time.Time
	writeDeadline time.Time

	// Fault injection (Network.Flaky). dropFn, when set, decides per
	// Write call (and per buffer or frame in writeBuffers/writeFrames)
	// whether that frame is silently black-holed; callers must therefore
	// write whole frames per call, which the engine's data path does.
	// stallUntil, when in the future, hides buffered bytes from the
	// reader without closing the pipe — the link looks alive but idle,
	// exactly the case the engine's inactivity detector exists for.
	dropFn     func(n int) bool
	stallUntil time.Time

	writeClosed bool // no more writes; reads drain then EOF
	broken      bool // hard failure: reads and writes error immediately
}

func newPipe(capacity int, latency time.Duration) *pipe {
	p := &pipe{capacity: capacity, latency: latency}
	p.notFull = sync.NewCond(&p.mu)
	p.notEmpty = sync.NewCond(&p.mu)
	return p
}

// arrivedLocked reports how many buffered bytes have propagated (their
// latency elapsed) and, when some have not, when the next batch lands.
func (p *pipe) arrivedLocked(now time.Time) (avail int, next time.Time) {
	if p.latency <= 0 {
		return p.length, time.Time{}
	}
	arrived := p.totalRead // at least everything already consumed
	for _, m := range p.marks {
		if m.at.After(now) {
			next = m.at
			break
		}
		arrived = m.total
	}
	// Drop fully-consumed watermarks.
	for len(p.marks) > 0 && p.marks[0].total <= p.totalRead {
		p.marks = p.marks[1:]
	}
	a := arrived - p.totalRead
	if a < 0 {
		a = 0
	}
	if int(a) > p.length {
		return p.length, next
	}
	return int(a), next
}

// readableLocked reports how many queued bytes a reader may take now —
// those whose latency has elapsed, none inside a stall window — and, when
// that is fewer than are queued, when to look again (zero: on a wakeup).
func (p *pipe) readableLocked() (avail int, next time.Time) {
	avail = p.length
	if p.latency > 0 { // zero-latency pipes skip the clock entirely
		avail, next = p.arrivedLocked(time.Now())
	}
	if !p.stallUntil.IsZero() {
		if now := time.Now(); now.Before(p.stallUntil) {
			// Stalled link: bytes are buffered but none are readable
			// until the stall window passes.
			avail = 0
			if next.IsZero() || p.stallUntil.Before(next) {
				next = p.stallUntil
			}
		} else {
			p.stallUntil = time.Time{}
		}
	}
	return avail, next
}

// wakeReadersLocked wakes blocked readers, if any.
func (p *pipe) wakeReadersLocked() {
	if p.readWaiters > 0 {
		p.notEmpty.Broadcast()
	}
}

// wakeWritersLocked wakes blocked writers, if any.
func (p *pipe) wakeWritersLocked() {
	if p.writeWaiters > 0 {
		p.notFull.Broadcast()
	}
}

// waitNotEmptyLocked sleeps on notEmpty with the waiter count maintained.
func (p *pipe) waitNotEmptyLocked() {
	p.readWaiters++
	p.notEmpty.Wait()
	p.readWaiters--
}

// waitNotFullLocked sleeps on notFull with the waiter count maintained.
func (p *pipe) waitNotFullLocked() {
	p.writeWaiters++
	p.notFull.Wait()
	p.writeWaiters--
}

// waitReadableLocked sleeps until woken, or until next when bytes are in
// flight.
func (p *pipe) waitReadableLocked(next time.Time) {
	if next.IsZero() {
		p.waitNotEmptyLocked()
		return
	}
	t := time.AfterFunc(time.Until(next), func() {
		p.mu.Lock()
		p.wakeReadersLocked()
		p.mu.Unlock()
	})
	p.waitNotEmptyLocked()
	t.Stop()
}

// deadlineTimer arranges a broadcast wake-up at deadline so blocked
// readers/writers can observe expiry. Returns a stop function.
func (p *pipe) deadlineTimer(deadline time.Time) func() {
	if deadline.IsZero() {
		return func() {}
	}
	d := time.Until(deadline)
	if d < 0 {
		d = 0
	}
	t := time.AfterFunc(d, func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.wakeWritersLocked()
		p.wakeReadersLocked()
	})
	return func() { t.Stop() }
}

// writeErrLocked reports why a writer may not proceed, if it may not.
func (p *pipe) writeErrLocked() error {
	switch {
	case p.broken || p.writeClosed:
		return ErrPipeClosed
	case expired(p.writeDeadline):
		return errTimeout{}
	}
	return nil
}

func (p *pipe) Write(b []byte) (int, error) {
	n, err := p.write([][]byte{b}, nil)
	return int(n), err
}

// writeBuffers appends the concatenation of bufs, blocking while full
// exactly like sequential Writes but under a single lock acquisition —
// the vectored fast path that lets a sender flush a whole message batch
// in one pipe operation.
func (p *pipe) writeBuffers(bufs [][]byte) (int64, error) { return p.write(bufs, nil) }

// writeFrames queues each frame by reference, blocking while full at the
// same byte count as writeBuffers. It takes over every frame's reference
// whatever happens: a frame is released once read, dropped by a Flaky
// link, discarded by a break, or — when the call fails before the frame
// was queued — at once. A frame the call gave up on part way stays queued
// as the bytes already admitted, which the reader sees as a cut frame.
func (p *pipe) writeFrames(frames []Frame) (int64, error) { return p.write(nil, frames) }

// write is the one write path: bufs are copied into the ring, frames are
// queued by reference; exactly one of the two is non-empty.
func (p *pipe) write(bufs [][]byte, frames []Frame) (int64, error) {
	p.mu.Lock()
	stop := p.deadlineTimer(p.writeDeadline)
	defer stop()
	defer p.mu.Unlock()

	for p.writing && p.writeErrLocked() == nil {
		p.waitNotFullLocked()
	}
	if err := p.writeErrLocked(); err != nil {
		releaseFrames(frames)
		return 0, err
	}
	p.writing = true
	defer func() {
		p.writing = false
		p.wakeWritersLocked()
	}()

	var written int64
	for i := 0; i < len(bufs)+len(frames); i++ {
		var b []byte
		var owner interface{ Release() }
		if frames != nil {
			b, owner = frames[i].Data, frames[i].Owner
		} else {
			b = bufs[i]
		}
		if p.dropFn != nil && !p.broken && !p.writeClosed && p.dropFn(len(b)) {
			// Black-holed: report success without buffering, like a lossy
			// link that ate the frame. Never blocks, so a dropping link
			// exerts no back-pressure for the frames it loses. Each
			// buffer is one complete wire image on the engine's batch
			// path, so per-buffer drops preserve framing.
			written += int64(len(b))
			if owner != nil {
				owner.Release()
			}
			continue
		}
		if len(b) == 0 {
			if owner != nil {
				owner.Release()
			}
			continue
		}
		queued := false
		for len(b) > 0 {
			for p.length >= p.capacity && p.writeErrLocked() == nil {
				p.waitNotFullLocked()
			}
			if err := p.writeErrLocked(); err != nil {
				if owner != nil {
					switch {
					case !queued:
						owner.Release()
					case !p.broken: // a break already released it
						p.cutTailLocked()
					}
				}
				if frames != nil {
					releaseFrames(frames[i+1:])
				}
				return written, err
			}
			n := min(len(b), p.capacity-p.length)
			switch {
			case owner == nil:
				p.copyInLocked(b[:n])
			case !queued:
				p.pushLocked(chunk{data: b, owner: owner, size: n, whole: true})
				queued = true
			default:
				p.chunks[len(p.chunks)-1].size += n
			}
			b = b[n:]
			written += int64(n)
			p.length += n
			p.totalWritten += int64(n)
			if p.latency > 0 {
				p.marks = append(p.marks, watermark{
					total: p.totalWritten,
					at:    time.Now().Add(p.latency),
				})
			}
			p.wakeReadersLocked()
		}
	}
	return written, nil
}

// releaseFrames releases every frame's reference.
func releaseFrames(frames []Frame) {
	for _, f := range frames {
		if f.Owner != nil {
			f.Owner.Release()
		}
	}
}

// pushLocked appends c to the FIFO, sliding the unread chunks down over
// the consumed prefix instead of growing a full backing array.
func (p *pipe) pushLocked(c chunk) {
	if p.first > 0 && len(p.chunks) == cap(p.chunks) {
		n := copy(p.chunks, p.chunks[p.first:])
		clear(p.chunks[n:])
		p.chunks = p.chunks[:n]
		p.first = 0
	}
	p.chunks = append(p.chunks, c)
}

// copyInLocked copies b, which fits, into the ring as the newest bytes of
// the stream.
func (p *pipe) copyInLocked(b []byte) {
	if p.ring == nil {
		p.ring = make([]byte, p.capacity)
	}
	tail := (p.ringHead + p.ringLen) % len(p.ring)
	if first := copy(p.ring[tail:], b); first < len(b) {
		copy(p.ring, b[first:])
	}
	p.ringLen += len(b)
	if last := len(p.chunks) - 1; last >= p.first && p.chunks[last].owner == nil {
		p.chunks[last].size += len(b)
		return
	}
	p.pushLocked(chunk{size: len(b)})
}

// cutTailLocked ends the frame its writer gave up on part way: the bytes
// admitted so far stay readable (the rest never enter the stream), and
// the frame's reference is released once they are read.
func (p *pipe) cutTailLocked() {
	c := &p.chunks[len(p.chunks)-1]
	c.data = c.data[:c.size]
	c.whole = false
	p.popReadLocked()
	p.wakeReadersLocked()
}

// popReadLocked pops fully read chunks off the head, releasing frames.
// A frame still being admitted stays queued, even when read up to its
// admitted bytes, until its writer finishes or gives up.
func (p *pipe) popReadLocked() {
	for p.first < len(p.chunks) {
		c := &p.chunks[p.first]
		if c.off < c.size || (c.owner != nil && c.size < len(c.data)) {
			return
		}
		if c.owner != nil {
			c.owner.Release()
		}
		*c = chunk{}
		p.first++
	}
	p.chunks, p.first = p.chunks[:0], 0
}

// copyOutLocked copies up to min(len(b), avail) queued bytes into b. Once
// it has copied something it stops short of a whole frame, leaving that
// for ReadFrames.
func (p *pipe) copyOutLocked(b []byte, avail int) int {
	n := 0
	for n < len(b) && avail > 0 && p.first < len(p.chunks) {
		c := &p.chunks[p.first]
		if n > 0 && c.whole {
			break
		}
		k := min(c.size-c.off, len(b)-n, avail)
		if c.owner == nil {
			if first := copy(b[n:n+k], p.ring[p.ringHead:]); first < k {
				copy(b[n+first:n+k], p.ring)
			}
			p.ringHead = (p.ringHead + k) % len(p.ring)
			p.ringLen -= k
		} else {
			copy(b[n:n+k], c.data[c.off:])
			c.whole = false
		}
		c.off += k
		n += k
		avail -= k
		p.length -= k
		if c.off < c.size {
			break
		}
		p.popReadLocked()
	}
	p.totalRead += int64(n)
	return n
}

func (p *pipe) Read(b []byte) (int, error) {
	return p.read(func(avail int) (int, bool) { return p.copyOutLocked(b, avail), true })
}

// readFrames hands the whole frames at the head of the stream to the
// caller by reference, up to len(dst): each returned Frame carries the
// reference its writer handed in, and the caller releases it. It blocks
// like Read until something is readable. It returns 0 and no error when
// the readable bytes start with anything but a whole frame — copied bytes,
// the rest of a frame Read took part of, a cut frame, or a frame larger
// than the pipe — which the caller then takes with Read.
func (p *pipe) readFrames(dst []Frame) (int, error) {
	return p.read(func(avail int) (int, bool) { return p.takeFramesLocked(dst, avail) })
}

// read is the one read loop. It blocks until bytes are readable, or the
// read fails, and offers the readable count to take, which reports how
// much it took and whether the call is done; one not done waits for more.
func (p *pipe) read(take func(avail int) (n int, done bool)) (int, error) {
	p.mu.Lock()
	stop := p.deadlineTimer(p.readDeadline)
	defer stop()
	defer p.mu.Unlock()

	for {
		if p.broken {
			return 0, ErrPipeClosed
		}
		avail, next := p.readableLocked()
		if avail > 0 {
			if n, done := take(avail); done {
				if n > 0 {
					p.wakeWritersLocked()
				}
				return n, nil
			}
		}
		if p.length == 0 && p.writeClosed {
			return 0, io.EOF
		}
		if expired(p.readDeadline) {
			return 0, errTimeout{}
		}
		p.waitReadableLocked(next)
	}
}

// takeFramesLocked moves the whole frames among the first avail readable
// bytes into dst. It is not done while the head frame is still being
// admitted or is in flight; when the head is no whole frame at all, or is
// one larger than the pipe that can only arrive piecemeal, it is done
// having taken nothing.
func (p *pipe) takeFramesLocked(dst []Frame, avail int) (n int, done bool) {
	if c := &p.chunks[p.first]; !c.whole || len(dst) == 0 ||
		(c.size < len(c.data) && p.length >= p.capacity) {
		return 0, true
	}
	for n < len(dst) && p.first < len(p.chunks) {
		c := &p.chunks[p.first]
		if !c.whole || c.size < len(c.data) || c.size > avail {
			break
		}
		dst[n] = Frame{Data: c.data, Owner: c.owner}
		n++
		avail -= c.size
		p.length -= c.size
		p.totalRead += int64(c.size)
		*c = chunk{}
		p.first++
	}
	if p.first == len(p.chunks) {
		p.chunks, p.first = p.chunks[:0], 0
	}
	return n, n > 0
}

// closeWrite marks the writer side done: pending bytes remain readable and
// the reader then sees io.EOF. Used for graceful connection close.
func (p *pipe) closeWrite() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeClosed = true
	p.wakeWritersLocked()
	p.wakeReadersLocked()
}

// breakPipe simulates an abrupt failure (node crash, severed link):
// buffered data is discarded, queued frames are released, and both ends
// error immediately.
func (p *pipe) breakPipe() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.broken = true
	for i := p.first; i < len(p.chunks); i++ {
		if o := p.chunks[i].owner; o != nil {
			o.Release()
		}
	}
	clear(p.chunks)
	p.chunks, p.first = p.chunks[:0], 0
	p.length, p.ringHead, p.ringLen = 0, 0, 0
	p.wakeWritersLocked()
	p.wakeReadersLocked()
}

// setFault installs or clears (nil, zero) fault-injection state. Waking
// both sides lets a blocked reader re-evaluate a newly installed or
// lifted stall window immediately.
func (p *pipe) setFault(dropFn func(n int) bool, stallUntil time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropFn = dropFn
	p.stallUntil = stallUntil
	p.wakeReadersLocked()
	p.wakeWritersLocked()
}

func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.readDeadline = t
	p.wakeReadersLocked()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.writeDeadline = t
	p.wakeWritersLocked()
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}
