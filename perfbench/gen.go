package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/engine"
)

// maxPerDo bounds the messages one Engine.Do call sends.
const maxPerDo = 256

// The paced generator sleeps until its next message is due, but at
// least minTick and at most maxTick: due messages reach the engines
// within about minTick of their due time, in batches when they come
// closer together than that.
const (
	minTick = 200 * time.Microsecond
	maxTick = time.Millisecond
)

// pause blocks the calling thread for d on the kernel's high-resolution
// timer. Go's timers wake an otherwise idle process only at millisecond
// granularity (the netpoller's epoll timeout), which would make the
// generator's own wake-up the largest and noisiest part of a paced
// message's latency.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // interrupted early: the caller re-reads the clock
}

// faults are deliberate defects the tests inject into generated traffic
// to prove that the sinks' checks fail the run. Negative disables.
type faults struct {
	skipSeq    int64 // seq the generator never sends
	corruptSeq int64 // seq whose payload suffix is flipped
}

var noFaults = faults{skipSeq: -1, corruptSeq: -1}

// item is one message the generator asks a source engine to send.
type item struct {
	seq uint32
	due int64
}

// generator drives every source of a run from one goroutine. Messages
// are built and sent on each source engine's goroutine through
// Engine.Do, so the engine's own rate-limited sources stay out of the
// measurement.
type generator struct {
	w      *workload
	seed   uint64
	srcs   []*source
	tr     *tracer
	faults faults
	wake   *waker

	stopped atomic.Bool
	done    chan struct{}

	recording atomic.Bool
	late      []int64 // ns the generator ran behind due, one in lateEvery messages, while recording
	lateN     int64   // messages due while recording
	lateMax   int64   // ns, the most the generator ran behind due while recording
	lateOut   chan []int64
}

// lateEvery samples the generator's lateness, so its sample buffer stays
// small next to the engines' heap, which heap_peak_mb measures.
const lateEvery = 16

func newGenerator(w *workload, seed uint64, srcs []*source, tr *tracer, f faults, wk *waker) *generator {
	return &generator{w: w, seed: seed, srcs: srcs, tr: tr, faults: f, wake: wk,
		done: make(chan struct{}), lateOut: make(chan []int64, 1)}
}

// waker lets sinks wake a generator that waits for credit. Sinks run on
// engine goroutines inside Algorithm.Process, which must never block on
// a channel; a sink takes the lock only while the generator waits.
type waker struct {
	mu      sync.Mutex
	cond    *sync.Cond
	waiting atomic.Bool
}

func newWaker() *waker {
	w := &waker{}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// wake wakes the waiting generator, if any. Callers change the state
// the generator waits on before calling wake.
func (w *waker) wake() {
	if w.waiting.Load() {
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// wait blocks until ready reports true. A wake after any state change
// that makes ready true cannot be lost: waiting is set before ready is
// checked, so the waker either sees it set or the check sees the change.
func (w *waker) wait(ready func() bool) {
	w.mu.Lock()
	w.waiting.Store(true)
	for !ready() {
		w.cond.Wait()
	}
	w.waiting.Store(false)
	w.mu.Unlock()
}

func (g *generator) start() {
	go func() {
		defer close(g.done)
		if g.w.Paced {
			g.runPaced()
		} else {
			g.runClosed()
		}
		g.lateOut <- g.late
	}()
}

// halt stops the generator and returns its lateness samples once its
// goroutine has exited.
func (g *generator) halt() []int64 {
	g.stopped.Store(true)
	g.wake.wake()
	<-g.done
	return <-g.lateOut
}

// nextSeq assigns the next seq of s, skipping the injected gap.
func (g *generator) nextSeq(s *source, seq *uint32) uint32 {
	if int64(*seq) == g.faults.skipSeq {
		*seq++
	}
	v := *seq
	*seq++
	return v
}

// submit asks s's engine to build and send the batch.
func (g *generator) submit(s *source, batch []item) {
	s.submitted += int64(len(batch))
	size, seed, tr, corrupt := g.w.MsgSize, g.seed, g.tr, g.faults.corruptSeq
	s.eng.Do(func(api engine.API) {
		for _, it := range batch {
			traced := tr != nil && tr.sampled(it.seq)
			var t0 int64
			if traced {
				t0 = nowNs()
			}
			m := api.NewMsg(dataType, s.app, it.seq, size)
			p := m.Payload()
			stamp(p, seed, s.app, it.seq, it.due)
			if int64(it.seq) == corrupt {
				p[len(p)-1] ^= 0xff
			}
			api.SendNew(m, s.dest)
			if traced {
				tr.add(span{kind: spanGen, node: int16(s.idx), start: t0, end: nowNs(), app: s.app, seq: it.seq})
			}
		}
		s.sent.Add(int64(len(batch)))
	})
}

// runPaced sends open loop: each source draws seeded exponential gaps
// with mean 1/Rate, and every message carries its own due time.
func (g *generator) runPaced() {
	n := len(g.srcs)
	rngs := make([]*rand.Rand, n)
	next := make([]float64, n) // due, ns since epoch
	seqs := make([]uint32, n)
	meanGap := 1e9 / g.w.Rate
	// Each source's first message is due at once, so set-up time does not
	// include a seeded first gap.
	start := float64(nowNs())
	for i := range g.srcs {
		rngs[i] = rand.New(rand.NewSource(int64(g.seed) + int64(i)*7919))
		next[i] = start
	}
	for !g.stopped.Load() {
		now := nowNs()
		rec := g.recording.Load()
		wake := now + int64(maxTick)
		for i, s := range g.srcs {
			var batch []item
			for int64(next[i]) <= now && len(batch) < maxPerDo {
				due := int64(next[i])
				batch = append(batch, item{seq: g.nextSeq(s, &seqs[i]), due: due})
				if rec {
					if now-due > g.lateMax {
						g.lateMax = now - due
					}
					if g.lateN%lateEvery == 0 {
						g.late = append(g.late, now-due)
					}
					g.lateN++
				}
				next[i] += rngs[i].ExpFloat64() * meanGap
			}
			if len(batch) > 0 {
				g.submit(s, batch)
			}
			if d := int64(next[i]); d < wake {
				wake = d
			}
		}
		pause(max(time.Duration(wake-nowNs()), minTick))
	}
}

// runClosed sends closed loop: each source keeps at most Window
// messages between submission and arrival at its sink, topping up whenever a
// sink reports progress. A message's due time is its submission time.
func (g *generator) runClosed() {
	win := int64(g.w.Window)
	low := win / 8
	if low < 1 {
		low = 1
	}
	seqs := make([]uint32, len(g.srcs))
	credit := func(s *source) int64 { return win - (s.submitted - s.sink.received.Load()) }
	ready := func() bool {
		for _, s := range g.srcs {
			if credit(s) >= low {
				return true
			}
		}
		return g.stopped.Load()
	}
	for !g.stopped.Load() {
		g.wake.wait(ready)
		if g.stopped.Load() {
			return
		}
		now := nowNs()
		for i, s := range g.srcs {
			n := credit(s)
			if n < low {
				continue
			}
			batch := make([]item, min(n, maxPerDo))
			for k := range batch {
				batch[k] = item{seq: g.nextSeq(s, &seqs[i]), due: now}
			}
			g.submit(s, batch)
		}
	}
}
