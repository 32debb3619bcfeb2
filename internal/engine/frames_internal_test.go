package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/vnet"
)

// hopAlg forwards every data message to next, or, at the sink (next
// zero), counts it — keeping the first one with the Hold verdict when
// hold is set.
type hopAlg struct {
	api  API
	next message.NodeID
	hold bool

	got  atomic.Int64
	mu   sync.Mutex
	kept *message.Msg
}

func (a *hopAlg) Attach(api API) { a.api = api }

func (a *hopAlg) Process(m *message.Msg) Verdict {
	if !m.IsData() {
		return Done
	}
	if !a.next.IsZero() {
		a.api.Send(m, a.next)
		return Done
	}
	a.got.Add(1)
	if a.hold {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.kept == nil {
			a.kept = m
			return Hold
		}
	}
	return Done
}

// bootChain starts a chain of k engines over n, each forwarding to the
// next; the last is the sink.
func bootChain(t *testing.T, n *vnet.Network, k int, mut func(i int, c *Config)) ([]*Engine, []*hopAlg) {
	t.Helper()
	engines := make([]*Engine, k)
	algs := make([]*hopAlg, k)
	for i := k - 1; i >= 0; i-- {
		algs[i] = &hopAlg{}
		if i < k-1 {
			algs[i].next = chainID(i + 1)
		}
		cfg := Config{ID: chainID(i), Transport: VNet{Net: n}, Algorithm: algs[i]}
		if mut != nil {
			mut(i, &cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		if err := e.Start(); err != nil {
			t.Fatalf("Start(%d): %v", i, err)
		}
		engines[i] = e
	}
	return engines, algs
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func chainID(i int) message.NodeID {
	return message.MakeID(fmt.Sprintf("10.5.0.%d", i+1), 7000)
}

// stopAll stops every engine and checks each one's budget gauges read 0.
func stopAll(t *testing.T, engines []*Engine) {
	t.Helper()
	for _, e := range engines {
		e.Stop()
	}
	for i, e := range engines {
		if b, h, r := e.bufBytes.Load(), e.heldBytes.Load(), e.reserved.Load(); b != 0 || h != 0 || r != 0 {
			t.Errorf("engine %d after Stop: buffered %d, held %d, reserved %d bytes; want 0", i, b, h, r)
		}
	}
}

// TestUnshapedChainHandsWireImagesAcrossByReference runs bulk data
// through a 16-node unshaped vnet chain, where every hop queues its wire
// images into the pipe by reference and the next hop's messages alias
// them. The sink holds one message throughout. Stopping the chain must
// leave every budget gauge at 0, and — with assertions compiled in, where
// pools count what is checked out — return every pool buffer but one:
// the source's buffer under the held message, pinned by the chain of
// fifteen aliasing messages, one per hop, until the sink releases it.
func TestUnshapedChainHandsWireImagesAcrossByReference(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const hops, app, size = 16, 3, 5 << 10
	engines, algs := bootChain(t, n, hops, nil)
	sink := algs[hops-1]
	sink.hold = true
	engines[0].StartSource(app, 0, size)
	waitUntil(t, 20*time.Second, "bulk data through the chain", func() bool {
		return sink.got.Load() > 1000
	})
	stopAll(t, engines)

	sink.mu.Lock()
	kept := sink.kept
	sink.mu.Unlock()
	if kept == nil || kept.Len() != size {
		t.Fatalf("sink kept %v, want a %d-byte message", kept, size)
	}
	if invariant.Enabled {
		for i, e := range engines {
			want := int64(0)
			if i == 0 {
				want = 1
			}
			if got := e.pool.Live(); got != want {
				t.Errorf("engine %d: %d pool buffers out after Stop while the sink holds one message, want %d", i, got, want)
			}
		}
	}
	kept.Release()
	if invariant.Enabled {
		if got := engines[0].pool.Live(); got != 0 {
			t.Errorf("source: %d pool buffers out after the sink released its message, want 0", got)
		}
	}
}

// TestSeverMidStreamReleasesQueuedFrames severs the middle link of a
// 3-node chain while its pipe is full of frames queued by reference (the
// sink reads slowly behind a downlink cap). The relay must count each
// message it loses exactly once and in full, everything it received must
// be accounted as sent or lost, and once the chain stops every queued
// frame must have been released: no pool buffer stays out.
func TestSeverMidStreamReleasesQueuedFrames(t *testing.T) {
	n := vnet.New()
	defer n.Close()
	const app, size = 4, 5 << 10
	const wire = message.HeaderSize + size
	engines, algs := bootChain(t, n, 3, func(i int, c *Config) {
		if i == 2 {
			c.DownBW = 2 << 20
		}
	})
	engines[0].StartSource(app, 0, size)
	waitUntil(t, 10*time.Second, "traffic at the sink", func() bool {
		return algs[2].got.Load() > 100
	})
	if n.Sever(chainID(1).Addr(), chainID(2).Addr()) == 0 {
		t.Fatal("Sever found no connection between relay and sink")
	}
	waitUntil(t, 10*time.Second, "the relay to count its losses", func() bool {
		return engines[1].Counters().MsgsDropped > 0
	})
	engines[0].StopSource(app)

	// Once the relay has nothing buffered, everything it received was
	// either sent or counted lost. A message cut part way by the failure
	// counts as sent for the bytes that landed and as lost in full, so
	// sent+lost may exceed received by less than one message.
	relay := engines[1]
	var c metrics.CountersSnapshot
	balanced := func() bool {
		c = relay.Counters()
		excess := c.BytesOut + c.BytesDropped - c.BytesIn
		return excess >= 0 && excess < wire && relay.bufBytes.Load() == 0 && relay.heldBytes.Load() == 0
	}
	deadline := time.Now().Add(15 * time.Second)
	for !balanced() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !balanced() {
		t.Errorf("relay received %d bytes, sent %d, lost %d: %d unaccounted",
			c.BytesIn, c.BytesOut, c.BytesDropped, c.BytesIn-c.BytesOut-c.BytesDropped)
	}
	if c.BytesDropped != c.MsgsDropped*wire {
		t.Errorf("relay dropped %d messages but %d bytes: each lost message must count once, in full (%d bytes)",
			c.MsgsDropped, c.BytesDropped, wire)
	}
	stopAll(t, engines)
	if invariant.Enabled {
		for i, e := range engines {
			if got := e.pool.Live(); got != 0 {
				t.Errorf("engine %d: %d pool buffers out after Stop, want 0", i, got)
			}
		}
	}
}
