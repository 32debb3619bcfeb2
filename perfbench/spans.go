package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanGen     spanKind = iota // generator builds and sends one message on the source engine
	spanProcess                 // Algorithm.Process on one engine
	spanSend                    // API.Send inside Process (child of the process span)
	spanWrite                   // stream conn Write/WriteBuffers carrying the message's header
	spanRead                    // stream conn Read returning the message's header
	spanPWrite                  // datagram write of the message's last fragment
	spanPRead                   // datagram read of the message's first fragment
)

var spanNames = [...]string{"gen", "process", "send", "conn.write", "conn.read", "packet.write", "packet.read"}

// msgKey identifies one message: (app, seq). Every flow has one sender
// per app, so the pair is unique within a run.
type msgKey struct{ app, seq uint32 }

// span is one timed interval at a layer boundary. Times are ns since
// epoch. Write and read spans can carry several messages; their other
// messages are listed in tracer.carries.
type span struct {
	kind     spanKind
	node     int16
	start    int64
	end      int64
	app, seq uint32
}

// carry attaches one more message to a multi-message span.
type carry struct {
	span int32
	key  msgKey
}

// tracer keeps the traced run's spans in memory. Only messages whose seq
// is a multiple of every are sampled; counters in the wrappers still see
// all traffic.
type tracer struct {
	every uint32
	on    atomic.Bool // spans and wrapper counters record only in the window

	mu      sync.Mutex
	spans   []span
	carries []carry
}

func newTracer(every uint32) *tracer {
	if every == 0 {
		every = 1
	}
	return &tracer{every: every}
}

func (t *tracer) sampled(seq uint32) bool { return seq%t.every == 0 }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// addCarrying records s as carrying every message in keys.
func (t *tracer) addCarrying(s span, keys []msgKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	s.app, s.seq = keys[0].app, keys[0].seq
	t.spans = append(t.spans, s)
	for _, k := range keys[1:] {
		t.carries = append(t.carries, carry{id, k})
	}
}

// hopTimes gathers, per message and node, the span edges the hop metrics
// need.
type hopTimes struct {
	doneAt  []int64 // end of gen (source) or process (relays), per node
	procAt  []int64 // start of process, per node
	writeAt []int64 // start of the first write carrying the message, per node
	parent  []int32 // span id of the doneAt span, per node
	writeID []int32 // span id of the writeAt span, per node
}

// traceReport is what the traced run derives from its spans.
type traceReport struct {
	spans         int
	switchToWrite []int64 // ns, sorted
	writeToProc   []int64 // ns, sorted
	processSelf   []int64 // ns, sorted: process span minus its send children
	sendNs        []int64 // ns, sorted
}

// analyze stitches spans into per-hop intervals along each message's
// path, computes self times and parents, and writes every span to path
// (one JSON object per line) when path is not empty.
func (t *tracer) analyze(c *cluster, path string) (traceReport, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(c.nodes)
	byMsg := map[msgKey]*hopTimes{}
	get := func(k msgKey) *hopTimes {
		h := byMsg[k]
		if h == nil {
			h = &hopTimes{doneAt: make([]int64, n), procAt: make([]int64, n), writeAt: make([]int64, n),
				parent: make([]int32, n), writeID: make([]int32, n)}
			for i := range h.parent {
				h.parent[i], h.writeID[i] = -1, -1
			}
			byMsg[k] = h
		}
		return h
	}
	keysOf := make(map[int32][]msgKey)
	for _, cr := range t.carries {
		keysOf[cr.span] = append(keysOf[cr.span], cr.key)
	}
	each := func(id int32, fn func(k msgKey)) {
		s := &t.spans[id]
		fn(msgKey{s.app, s.seq})
		for _, k := range keysOf[id] {
			fn(k)
		}
	}
	rep := traceReport{spans: len(t.spans)}
	for i := range t.spans {
		s, id := &t.spans[i], int32(i)
		switch s.kind {
		case spanGen:
			h := get(msgKey{s.app, s.seq})
			h.doneAt[s.node], h.parent[s.node] = s.end, id
		case spanProcess:
			h := get(msgKey{s.app, s.seq})
			h.procAt[s.node] = s.start
			h.doneAt[s.node], h.parent[s.node] = s.end, id
		case spanWrite, spanPWrite:
			each(id, func(k msgKey) {
				h := get(k)
				// The hop is split where the write starts: over vnet the
				// next hop can process the bytes before the writing call
				// returns.
				if h.writeID[s.node] < 0 {
					h.writeAt[s.node], h.writeID[s.node] = s.start, id
				}
			})
		}
	}
	// Parents: a send's parent is the process span that contains it on
	// the same node; a write's parent is the span that finished the
	// message on its node; a process's parent is the write that carried
	// it from the previous hop.
	parents := make([]int32, len(t.spans))
	for i := range parents {
		parents[i] = -1
	}
	selfNs := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		selfNs[i] = s.end - s.start
	}
	for i := range t.spans {
		s := &t.spans[i]
		h := byMsg[msgKey{s.app, s.seq}]
		if h == nil {
			continue
		}
		switch s.kind {
		case spanSend:
			if p := h.parent[s.node]; p >= 0 {
				parents[i] = p
				selfNs[p] -= s.end - s.start
			}
			rep.sendNs = append(rep.sendNs, s.end-s.start)
		case spanWrite, spanPWrite:
			parents[i] = h.parent[s.node]
		case spanProcess:
			if prev := c.w.upstreamOf(int(s.node), s.app); prev >= 0 {
				parents[i] = h.writeID[prev]
			}
		}
	}
	for i := range t.spans {
		if t.spans[i].kind == spanProcess && c.nodes[t.spans[i].node].sinks[t.spans[i].app] == nil {
			rep.processSelf = append(rep.processSelf, selfNs[i])
		}
	}
	for k, h := range byMsg {
		for from := 0; from < n; from++ {
			to := c.w.downstreamOf(from, k.app)
			if to < 0 || h.doneAt[from] == 0 || h.writeAt[from] == 0 || h.procAt[to] == 0 {
				continue
			}
			rep.switchToWrite = append(rep.switchToWrite, h.writeAt[from]-h.doneAt[from])
			rep.writeToProc = append(rep.writeToProc, h.procAt[to]-h.writeAt[from])
		}
	}
	sortInts(rep.switchToWrite)
	sortInts(rep.writeToProc)
	sortInts(rep.processSelf)
	sortInts(rep.sendNs)
	if path == "" {
		return rep, nil
	}
	return rep, t.write(path, parents, selfNs, keysOf)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string, parents []int32, selfNs []int64, keysOf map[int32][]msgKey) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"node":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d,"parent":%d,"msgs":[[%d,%d]`,
			i, spanNames[s.kind], s.node, s.start, s.end, selfNs[i], parents[i], s.app, s.seq)
		for _, k := range keysOf[int32(i)] {
			fmt.Fprintf(bw, `,[%d,%d]`, k.app, k.seq)
		}
		bw.WriteString("]}\n")
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
