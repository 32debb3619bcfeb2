package message

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/invariant"
)

// TestOwnedChainPinsEveryHop forwards one pooled message across three
// hops the way the vnet stream lane does: each hop's message aliases the
// previous hop's wire image and owns one reference on that message. The
// hops' own references drop as they forward; the pool buffer must stay
// out until the last hop releases, and then every header in the chain
// must release in turn.
func TestOwnedChainPinsEveryHop(t *testing.T) {
	pool := NewPool()
	src := pool.Get(FirstDataType, MakeID("10.0.0.1", 1), 2, 7, 100)
	for i := range src.Payload() {
		src.Payload()[i] = byte(i)
	}
	hop1 := FromOwned(src.Wire(), src.Retain())
	src.Release()
	hop2 := FromOwned(hop1.Wire(), hop1.Retain())
	hop1.Release()

	if src.Refs() != 1 || hop1.Refs() != 1 {
		t.Fatalf("upstream references %d, %d while the last hop lives, want 1, 1", src.Refs(), hop1.Refs())
	}
	if !bytes.Equal(hop2.Wire(), src.Wire()) || &hop2.Wire()[0] != &src.Wire()[0] {
		t.Fatal("the last hop does not alias the source's wire image")
	}
	if hop2.Seq() != 7 || hop2.App() != 2 || hop2.Len() != 100 {
		t.Fatalf("last hop decoded seq %d app %d len %d, want 7, 2, 100", hop2.Seq(), hop2.App(), hop2.Len())
	}
	if invariant.Enabled && pool.Live() != 1 {
		t.Fatalf("%d pool buffers out while the chain lives, want 1", pool.Live())
	}
	hop2.Release()
	if src.Refs() != 0 || hop1.Refs() != 0 {
		t.Fatalf("upstream references %d, %d after the last hop released, want 0, 0", src.Refs(), hop1.Refs())
	}
	if invariant.Enabled && pool.Live() != 0 {
		t.Fatalf("%d pool buffers out after the chain released, want 0", pool.Live())
	}
}

// TestHeaderRewriteOfSharedMessagePanics checks the debug assertion that
// SetSeq and WithSender only rewrite a wire image nobody else can see:
// with wire images crossing engines by reference, an in-place rewrite of
// a shared one would change a neighbour's message.
func TestHeaderRewriteOfSharedMessagePanics(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("assertions are compiled in only with -tags ioverlay_debug")
	}
	pool := NewPool()
	id := MakeID("10.0.0.2", 2)
	shared := map[string]func() *Msg{
		"retained": func() *Msg { return pool.Get(FirstDataType, id, 1, 1, 8).Retain() },
		"owned": func() *Msg {
			m := pool.Get(FirstDataType, id, 1, 1, 8)
			return FromOwned(m.Wire(), m)
		},
		"segment": func() *Msg {
			seg := pool.GetSegment()
			src := pool.Get(FirstDataType, id, 1, 1, 8)
			copy(seg.Bytes(), src.Wire())
			return FromSegment(seg, 0)
		},
		"derived": func() *Msg { return pool.Get(FirstDataType, id, 1, 1, 8).Derive(FirstDataType+1, id, 2, 2) },
	}
	rewrites := map[string]func(*Msg){
		"SetSeq":     func(m *Msg) { m.SetSeq(9) },
		"WithSender": func(m *Msg) { m.WithSender(MakeID("10.0.0.3", 3)) },
	}
	for name, build := range shared {
		for op, rewrite := range rewrites {
			t.Run(name+"/"+op, func(t *testing.T) {
				defer func() {
					r, _ := recover().(string)
					if !strings.Contains(r, "shared message") {
						t.Fatalf("%s on a %s message: recovered %q, want the shared-message assertion", op, name, r)
					}
				}()
				rewrite(build())
			})
		}
	}
	for _, rewrite := range rewrites {
		rewrite(pool.Get(FirstDataType, id, 1, 1, 8)) // private: allowed
	}
}
