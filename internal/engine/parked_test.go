package engine

import (
	"testing"

	"repro/internal/message"
	"repro/internal/vnet"
)

// TestStashDrainForStopReleasesEverything parks messages on an unstarted
// engine, then runs the Stop-path release: every parked message must be
// released and the parked and buffered-bytes gauges must reconcile to
// zero, with nothing leaked (the ioverlay_debug build asserts the same
// gauges after a real Stop).
func TestStashDrainForStopReleasesEverything(t *testing.T) {
	n := vnet.New()
	t.Cleanup(n.Close)
	e, err := New(Config{
		ID:        message.MakeID("10.0.0.1", 7000),
		Transport: VNet{Net: n},
		Algorithm: nopAlg{},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dest := message.MakeID("10.0.0.3", 7000)
	msgs := make([]*message.Msg, 6)
	for i := range msgs {
		msgs[i] = message.New(message.FirstDataType, message.MakeID("10.0.0.2", 7000), 1, uint32(i+1), make([]byte, 100))
		e.park(msgs[i].Retain(), dest)
	}
	if got := e.parkedLen.Load(); got != int64(len(msgs)) {
		t.Fatalf("parked gauge %d, want %d", got, len(msgs))
	}

	e.releaseParked()
	if len(e.parked) != 0 {
		t.Fatalf("%d parked messages survived the release", len(e.parked))
	}
	if got := e.parkedLen.Load(); got != 0 {
		t.Fatalf("parked gauge %d after release, want 0", got)
	}
	if got := e.bufBytes.Load(); got != 0 {
		t.Fatalf("buffered-bytes gauge %d after release, want 0", got)
	}
	// The release dropped exactly the parked reference: each message holds
	// only the test's own.
	for i, m := range msgs {
		if got := m.Refs(); got != 1 {
			t.Fatalf("message %d holds %d references after release, want 1", i, got)
		}
	}
}
