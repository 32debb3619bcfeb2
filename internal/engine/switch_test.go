package engine_test

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/message"
	"repro/internal/trace"
	"repro/internal/vnet"
)

// gid returns the current goroutine's numeric ID by parsing the stack
// header — test-only, to observe which goroutine runs Process.
func gid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := strings.Fields(string(buf[:n]))
	id, _ := strconv.ParseInt(fields[1], 10, 64)
	return id
}

// gidRecorder records the goroutine ID of every Process invocation.
type gidRecorder struct {
	recorder
	mu   sync.Mutex
	gids map[int64]int
}

func (g *gidRecorder) Process(m *message.Msg) engine.Verdict {
	g.mu.Lock()
	if g.gids == nil {
		g.gids = make(map[int64]int)
	}
	g.gids[gid()]++
	g.mu.Unlock()
	return g.recorder.Process(m)
}

// TestShardedRelayDeliversAcrossLanes fans eight sources into one relay
// and checks its single switch delivers everything: traffic reaches the
// sink, and the status report carries exactly one switch entry — index 0,
// with real switching recorded and no cross-switch handoff. The report's
// per-switch list keeps its wire format; one switch fills one entry.
func TestShardedRelayDeliversAcrossLanes(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 7
	const sources = 8

	sink := &recorder{}
	startNode(t, n, nid(99), sink)

	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(99)}
	r := startNode(t, n, nid(50), relay)

	for i := 0; i < sources; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(50)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}

	waitFor(t, 10*time.Second, "sink to receive fanned-in data", func() bool {
		return sink.ReceivedBytes(app) > 256<<10
	})

	rp := r.Snapshot()
	if len(rp.Shards) != 1 {
		t.Fatalf("report carries %d switch entries, want 1", len(rp.Shards))
	}
	s := rp.Shards[0]
	if s.Shard != 0 {
		t.Errorf("switch entry has index %d, want 0", s.Shard)
	}
	if s.Switched == 0 {
		t.Error("the switch recorded no switched messages")
	}
	if s.HandoffDepth != 0 || s.HandoffPeak != 0 {
		t.Errorf("handoff depth %d / peak %d on a single switch, want 0", s.HandoffDepth, s.HandoffPeak)
	}
}

// TestShardedProcessStaysSerialized loads a sink with four upstream
// receivers and checks the engine's core contract: every
// Algorithm.Process call runs on the single engine goroutine.
func TestShardedProcessStaysSerialized(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 3

	sink := &gidRecorder{}
	startNode(t, n, nid(9), sink)

	for i := 0; i < 4; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(9)}
		a := startNode(t, n, nid(i+1), src)
		a.StartSource(app, 0, 1024)
	}

	waitFor(t, 10*time.Second, "sink to process fanned-in traffic", func() bool {
		return sink.ReceivedBytes(app) > 128<<10
	})

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.gids) != 1 {
		t.Fatalf("Process ran on %d distinct goroutines, want exactly 1: %v", len(sink.gids), sink.gids)
	}
}

// TestShardedParkedRetryPreservesOrder is the congested-relay FIFO check:
// with tiny buffers and a two-message parked limit, per-destination
// parking and the parked retry must not reorder a flow.
func TestShardedParkedRetryPreservesOrder(t *testing.T) {
	n := vnet.New(vnet.WithPipeCapacity(4 << 10))
	defer n.Close()
	const app = 1
	tune := func(c *engine.Config) {
		c.RecvBuf, c.SendBuf = 3, 3
		c.MaxParked = 2
	}
	sink := &orderChecker{}
	startNode(t, n, nid(3), sink, func(c *engine.Config) {
		c.DownBW = 60 << 10
		c.RecvBuf, c.SendBuf = 3, 3
	})
	relay := &recorder{}
	relay.DefaultRoutes = []message.NodeID{nid(3)}
	startNode(t, n, nid(2), relay, tune)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, tune)
	a.StartSource(app, 0, 2048)
	waitFor(t, 10*time.Second, "congested delivery", func() bool {
		return sink.ReceivedBytes(app) > 100<<10
	})
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.ooo != 0 {
		t.Errorf("%d out-of-order deliveries through the parked retry", sink.ooo)
	}
}

// TestParkedRetryReadsLengthBeforeHandoff forwards through a one-slot
// sender ring, so most messages park, toward an unthrottled sink whose
// sender writes and releases each message as soon as the retry hands it
// over. The retry must not touch a message after the handoff: under -race
// that is a reported data race, and without it a length read from the
// released message leaks into the buffered-bytes gauge, which must read
// zero once Stop has drained everything.
func TestParkedRetryReadsLengthBeforeHandoff(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 4
	sink := &recorder{}
	startNode(t, n, nid(2), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(2)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) { c.SendBuf = 1 })
	a.StartSource(app, 0, 1024)

	parked := false
	waitFor(t, 10*time.Second, "parked traffic to reach the sink", func() bool {
		for _, s := range a.Snapshot().Shards {
			parked = parked || s.Parked > 0
		}
		return parked && sink.ReceivedBytes(app) > 4<<20
	})
	a.Stop()
	if got := a.BufferedBytes(); got != 0 {
		t.Fatalf("buffered-bytes gauge %d after Stop, want 0", got)
	}
}

// TestShardedGracefulStopMidTraffic stops three loaded sources mid-flow.
// Each must stop promptly and reconcile its buffered-bytes gauge to zero,
// so a leak in the ring, held or parked accounting fails here (under
// -tags ioverlay_debug Stop itself also asserts it).
func TestShardedGracefulStopMidTraffic(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app = 2

	sink := &recorder{}
	startNode(t, n, nid(9), sink)

	engines := make([]*engine.Engine, 3)
	for i := 0; i < 3; i++ {
		src := &recorder{}
		src.DefaultRoutes = []message.NodeID{nid(9)}
		engines[i] = startNode(t, n, nid(i+1), src)
		engines[i].StartSource(app, 0, 1024)
	}
	waitFor(t, 5*time.Second, "traffic before stop", func() bool {
		return sink.ReceivedBytes(app) > 64<<10
	})

	done := make(chan struct{})
	go func() {
		for _, e := range engines {
			e.Stop()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung mid-traffic")
	}
	for i, e := range engines {
		if got := e.BufferedBytes(); got != 0 {
			t.Errorf("source %d: buffered-bytes gauge %d after Stop, want 0", i+1, got)
		}
	}
}

// TestBudgetWatermarkSingleTransition overloads a budgeted node from
// several concurrent admission goroutines (sources and receivers all
// admit through the budget) and checks the shed watermark behaves
// as a single hysteresis latch: on/off trace events strictly alternate —
// the regression would be two goroutines both observing the crossing and
// double-emitting — and the buffered-bytes peak honors the budget.
func TestBudgetWatermarkSingleTransition(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const budget = 256 << 10

	sink := &recorder{}
	startNode(t, n, nid(9), sink)
	src := &recorder{}
	src.DefaultRoutes = []message.NodeID{nid(9)}
	a := startNode(t, n, nid(1), src, func(c *engine.Config) {
		c.LinkBW = map[message.NodeID]int64{nid(9): 20 << 10}
		c.SendBuf = 10000
		c.MemoryBudget = budget
		// Watermark transitions are rare next to the flood of switch and
		// shed events; the default 1024-entry recorder evicts them.
		c.EventLog = 1 << 16
	})
	// Two independent source goroutines race the admission path.
	a.StartSource(1, 0, 4096)
	a.StartSource(2, 0, 4096)

	// The unthrottled switch floods the recorder ring, so watermark
	// events must be harvested while they are still retained.
	marks := make(map[uint64]int64)
	harvest := func() {
		for _, ev := range a.Events() {
			if ev.Kind == trace.KindWatermark {
				marks[ev.Seq] = ev.Value
			}
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.Counters().MsgsShed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for budget shedding to engage")
		}
		harvest()
		time.Sleep(2 * time.Millisecond)
	}
	for end := time.Now().Add(500 * time.Millisecond); time.Now().Before(end); {
		harvest()
		time.Sleep(2 * time.Millisecond)
	}

	if max := a.MaxBufferedBytes(); max > budget {
		t.Errorf("buffered bytes peaked at %d, above the %d budget", max, budget)
	}
	seqs := make([]uint64, 0, len(marks))
	for seq := range marks {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	last := int64(-1)
	ons := 0
	for _, seq := range seqs {
		v := marks[seq]
		if v == last {
			t.Fatalf("consecutive watermark events with value %d: transition double-emitted", v)
		}
		last = v
		if v == 1 {
			ons++
		}
	}
	if ons == 0 {
		t.Error("no watermark-on event harvested while shedding")
	}
}
