package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	mt "repro/internal/metrics"
	"repro/internal/protocol"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64
	faults  faults
}

// phase is the outcome of one measured run of a workload: the untraced
// run gives the end-to-end metrics, the traced run the span-derived
// per-layer ones.
type phase struct {
	errs      []string
	attempted int64
	valid     int64

	setups  []float64 // seconds, one per set-up repetition
	msgs    int64     // valid messages delivered in the window
	nlats   int       // latency samples in the window
	slices  []slice
	late    []int64 // ns, sorted
	lateMax int64   // ns

	rt0, rt1   []metrics.Sample
	rep0, rep1 []protocol.Report // per engine, at window open and close
	cur0, cur1 []uint64          // flight-recorder cursors
	counters   []mt.CountersSnapshot
	parkedPeak int64 // traced run only: peak parked messages summed over engines

	tr      *tracer
	cluster *cluster
}

func (p *phase) correct() bool { return len(p.errs) == 0 }

// sliceSeconds is the length of the slices the window is cut into; the
// end-to-end metrics are medians over the slices, so a short stall from
// outside the benchmark moves one slice rather than the whole result.
const sliceSeconds = 1.0

// slice is the end-to-end view of one slice of the window.
type slice struct {
	goodput       float64 // MiB/s
	cpuPer        float64 // us per delivered message
	heap          float64 // MiB, peak
	p50, p90, p99 float64 // ms
}

// counts is a point-in-time reading of the run's progress.
type counts struct {
	at           time.Time
	cpu          float64
	valid, bytes int64
}

func sample(c *cluster) counts {
	k := counts{at: time.Now(), cpu: cpuSeconds()}
	for _, s := range c.sinks {
		k.valid += s.valid.Load()
		k.bytes += s.bytes.Load()
	}
	return k
}

// cpuSeconds reads the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Runtime metrics read at the window's edges.
const (
	rmHeapObjects = "/memory/classes/heap/objects:bytes"
	rmAllocObjs   = "/gc/heap/allocs:objects"
	rmAllocBytes  = "/gc/heap/allocs:bytes"
	rmSchedLat    = "/sched/latencies:seconds"
	rmGCPauses    = "/sched/pauses/total/gc:seconds"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

func readRuntime() []metrics.Sample {
	s := []metrics.Sample{{Name: rmAllocObjs}, {Name: rmAllocBytes}, {Name: rmSchedLat},
		{Name: rmGCPauses}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	return s
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: rmHeapObjects}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak since the previous call and starts a new one.
func (h *heapSampler) takePeak() float64 { return float64(h.peak.Swap(0)) }

func (h *heapSampler) halt() {
	close(h.stop)
	<-h.done
}

// parkedSampler polls every engine's Snapshot for the parked backlog; it
// runs in the traced run only, since Snapshot takes the engine lock.
func parkedSampler(c *cluster, stop <-chan struct{}, out *int64, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		var sum int64
		for _, e := range c.engines {
			for _, sh := range e.Snapshot().Shards {
				sum += int64(sh.Parked)
			}
		}
		if sum > *out {
			*out = sum
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// bootAndWait boots the cluster, starts the generator and waits until
// every sink has consumed its first message. It returns the set-up time:
// first engine.New to the last sink's first arrival.
func bootAndWait(cfg *runConfig, tr *tracer) (*cluster, *generator, float64, error) {
	wk := newWaker()
	t0 := nowNs()
	c, err := boot(&cfg.w, cfg.seed, tr, wk)
	for try := 1; err != nil && errors.Is(err, syscall.EADDRINUSE) && try < 3; try++ {
		// freeIDs probes ports and releases them before the engines bind
		// them, so another socket can take one in between: pick afresh.
		fmt.Fprintln(os.Stderr, "perfbench: retrying set-up:", err)
		t0 = nowNs()
		c, err = boot(&cfg.w, cfg.seed, tr, wk)
	}
	if err != nil {
		return nil, nil, 0, err
	}
	g := newGenerator(&cfg.w, cfg.seed, c.sources, tr, cfg.faults, wk)
	if cfg.w.Paced {
		// Room for every lateness sample of the window, so the
		// benchmark's own bookkeeping does not grow the heap under
		// measurement.
		g.late = make([]int64, 0, int(cfg.w.Rate*float64(cfg.w.sources())*(cfg.seconds+2))/lateEvery+1)
	}
	g.start()
	deadline := time.Now().Add(20 * time.Second)
	for {
		last, ready := int64(0), true
		for _, s := range c.sinks {
			f := s.firstAt.Load()
			if f == 0 {
				ready = false
				break
			}
			if f > last {
				last = f
			}
		}
		if ready {
			return c, g, float64(last-t0) / 1e9, nil
		}
		if time.Now().After(deadline) {
			g.halt()
			c.stop()
			return nil, nil, 0, fmt.Errorf("set-up: a sink received nothing within 20s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// runPhase measures one run of the workload.
func runPhase(cfg *runConfig, traced bool) (*phase, error) {
	w := &cfg.w
	p := &phase{}
	reps := w.SetupReps
	var tr *tracer
	if traced {
		reps = 1
		tr = newTracer(uint32(w.TraceEvery))
		p.tr = tr
	}
	var c *cluster
	var g *generator
	for r := 0; r < reps; r++ {
		var setup float64
		var err error
		c, g, setup, err = bootAndWait(cfg, tr)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, setup)
		if r < reps-1 {
			g.halt()
			c.stop()
			for _, s := range c.sinks {
				p.errs = append(p.errs, s.errors()...)
			}
		}
	}
	p.cluster = c
	time.Sleep(time.Duration(w.WarmupMs) * time.Millisecond)

	// Window open.
	var parkedWG sync.WaitGroup
	parkedStop := make(chan struct{})
	if traced {
		parkedWG.Add(1)
		go parkedSampler(c, parkedStop, &p.parkedPeak, &parkedWG)
	}
	heap := startHeapSampler()
	for _, e := range c.engines {
		p.rep0 = append(p.rep0, e.Snapshot())
		p.cur0 = append(p.cur0, e.Recorder().Cursor())
	}
	for _, s := range c.sinks {
		s.recording.Store(true)
	}
	g.recording.Store(true)
	if tr != nil {
		tr.on.Store(true)
	}
	p.rt0 = readRuntime()
	prev := sample(c)
	first := prev
	seconds := cfg.seconds
	if traced {
		// Per-layer figures carry no bound, so the traced window is a
		// third of the measured one; that keeps the spans it writes and
		// the traced invocation's run time small.
		seconds = max(1, seconds/3)
	}
	n := max(1, int(math.Round(seconds/sliceSeconds)))
	for i := 0; i < n; i++ {
		time.Sleep(time.Duration(seconds / float64(n) * float64(time.Second)))
		cur := sample(c)
		dt := cur.at.Sub(prev.at).Seconds()
		sl := slice{
			goodput: float64(cur.bytes-prev.bytes) / dt / (1 << 20),
			cpuPer:  ratio((cur.cpu-prev.cpu)*1e6, float64(cur.valid-prev.valid)),
			heap:    heap.takePeak() / (1 << 20),
		}
		var lats []int64
		for _, s := range c.sinks {
			lats = append(lats, s.takeLats()...)
		}
		sortInts(lats)
		sl.p50, sl.p90, sl.p99 = quantile(lats, 0.5)/1e6, quantile(lats, 0.9)/1e6, quantile(lats, 0.99)/1e6
		p.nlats += len(lats)
		p.slices = append(p.slices, sl)
		fmt.Fprintf(os.Stderr, "slice %d: goodput %.4g MiB/s, cpu %.4g us/msg, heap %.4g MiB, latency p50 %.4g p90 %.4g p99 %.4g ms (%d samples)\n",
			i, sl.goodput, sl.cpuPer, sl.heap, sl.p50, sl.p90, sl.p99, len(lats))
		prev = cur
	}
	p.rt1 = readRuntime()
	if tr != nil {
		tr.on.Store(false)
	}
	g.recording.Store(false)
	for _, s := range c.sinks {
		s.recording.Store(false)
	}
	for _, e := range c.engines {
		p.rep1 = append(p.rep1, e.Snapshot())
		p.cur1 = append(p.cur1, e.Recorder().Cursor())
	}
	heap.halt()
	close(parkedStop)
	parkedWG.Wait()
	p.msgs = prev.valid - first.valid

	p.late = g.halt()
	p.lateMax = g.lateMax // written before halt's hand-off
	sortInts(p.late)
	p.errs = append(p.errs, drain(c)...)
	for _, e := range c.engines {
		p.counters = append(p.counters, e.Counters())
	}
	c.stop()
	for _, s := range c.sinks {
		s.takeLats() // arrivals after the window
		p.errs = append(p.errs, s.errors()...)
	}
	for _, src := range c.sources {
		sent, valid := src.sent.Load(), src.sink.valid.Load()
		p.attempted += sent
		p.valid += valid
		if w.reliable() && valid != sent {
			p.errs = append(p.errs, fmt.Sprintf("app %d: %d sent, %d delivered valid on a reliable lane", src.app, sent, valid))
		}
	}
	if p.msgs == 0 {
		p.errs = append(p.errs, "no message delivered in the measured window")
	}
	return p, nil
}

// drain waits until the sinks stop receiving: on a reliable lane until
// every sent message has arrived, on the datagram lane until arrivals
// have been quiet for 300ms.
func drain(c *cluster) []string {
	deadline := time.Now().Add(30 * time.Second)
	var last int64 = -1
	quietSince := time.Now()
	for time.Now().Before(deadline) {
		done, total := true, int64(0)
		for _, src := range c.sources {
			got := src.sink.received.Load()
			total += got
			if src.submitted != src.sent.Load() || got < src.sent.Load() {
				done = false
			}
		}
		if done {
			return nil
		}
		if total != last {
			last, quietSince = total, time.Now()
		} else if !c.w.reliable() && time.Since(quietSince) > 300*time.Millisecond {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return []string{"drain: messages still missing 30s after the sources stopped"}
}

func sortInts(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// quantile returns the q-quantile of sorted v by linear interpolation
// between closest ranks.
func quantile(v []int64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo+1 >= len(v) {
		return float64(v[len(v)-1])
	}
	f := pos - float64(lo)
	return float64(v[lo])*(1-f) + float64(v[lo+1])*f
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
