package vnet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countOwner counts its releases; a frame's owner must end at exactly one.
type countOwner struct {
	data     []byte
	released atomic.Int32
}

func (o *countOwner) Release() { o.released.Add(1) }

// ownedFrames builds one frame per size, each with its own counting owner
// and distinct contents.
func ownedFrames(sizes ...int) ([]Frame, []*countOwner) {
	frames := make([]Frame, len(sizes))
	owners := make([]*countOwner, len(sizes))
	for i, n := range sizes {
		o := &countOwner{data: make([]byte, n)}
		for j := range o.data {
			o.data[j] = byte(i*31 + j)
		}
		frames[i], owners[i] = Frame{Data: o.data, Owner: o}, o
	}
	return frames, owners
}

// assertReleasedOnce fails unless every owner was released exactly once.
func assertReleasedOnce(t *testing.T, what string, owners []*countOwner) {
	t.Helper()
	for i, o := range owners {
		if got := o.released.Load(); got != 1 {
			t.Errorf("%s: frame %d released %d times, want 1", what, i, got)
		}
	}
}

// assertUnreleased fails if any owner was released.
func assertUnreleased(t *testing.T, what string, owners []*countOwner) {
	t.Helper()
	for i, o := range owners {
		if got := o.released.Load(); got != 0 {
			t.Errorf("%s: frame %d released %d times while still queued", what, i, got)
		}
	}
}

// TestFramesInterleaveWithBytesAsOneStream writes a random mix of Write,
// WriteBuffers and WriteFrames and reads it back with a random mix of
// Read and ReadFrames, through small pipes with and without latency and
// a stall window. The bytes read must be exactly the bytes written, every
// frame ReadFrames returns must be one whole frame as written, and every
// owner must be released exactly once.
func TestFramesInterleaveWithBytesAsOneStream(t *testing.T) {
	type setup struct {
		latency time.Duration
		stall   time.Duration
	}
	for _, su := range []setup{{}, {latency: 200 * time.Microsecond}, {stall: 15 * time.Millisecond}, {latency: 100 * time.Microsecond, stall: 10 * time.Millisecond}} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("latency=%v/stall=%v/seed=%d", su.latency, su.stall, seed), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(seed))
				capacity := 64 + rng.Intn(400)
				n := New(WithPipeCapacity(capacity), WithLatency(su.latency))
				defer n.Close()
				client, server := pairFrom(t, n, "10.1.0.1:7000", "10.1.0.2:7000")
				if su.stall > 0 {
					n.Flaky("10.1.0.1:7000", "10.1.0.2:7000", 0, su.stall)
				}
				w, r := client.(*Conn), server.(*Conn)

				// The writer's script, fixed up front so the reference
				// stream is known.
				var want []byte
				var owners []*countOwner
				type op struct {
					kind   int // 0 Write, 1 WriteBuffers, 2 WriteFrames
					bufs   [][]byte
					frames []Frame
				}
				var ops []op
				for i := 0; i < 60; i++ {
					o := op{kind: rng.Intn(3)}
					count := 1
					if o.kind > 0 {
						count = 1 + rng.Intn(4)
					}
					for j := 0; j < count; j++ {
						size := 1 + rng.Intn(capacity*3/2) // some exceed the pipe
						if o.kind == 2 {
							f, own := ownedFrames(size)
							for k := range own[0].data {
								own[0].data[k] = byte(rng.Intn(256))
							}
							o.frames = append(o.frames, f[0])
							owners = append(owners, own[0])
							want = append(want, own[0].data...)
							continue
						}
						b := make([]byte, size)
						rng.Read(b)
						o.bufs = append(o.bufs, b)
						want = append(want, b...)
					}
					ops = append(ops, o)
				}
				frameOf := make(map[*countOwner]bool, len(owners))
				for _, o := range owners {
					frameOf[o] = true
				}

				errc := make(chan error, 1)
				go func() {
					defer w.Close()
					for _, o := range ops {
						var err error
						switch o.kind {
						case 0:
							_, err = w.Write(o.bufs[0])
						case 1:
							_, err = w.WriteBuffers(o.bufs)
						case 2:
							_, err = w.WriteFrames(o.frames)
						}
						if err != nil {
							errc <- err
							return
						}
					}
					errc <- nil
				}()

				var got []byte
				readRng := rand.New(rand.NewSource(seed * 7919))
				dst := make([]Frame, 4)
				buf := make([]byte, capacity*2)
				for {
					if readRng.Intn(2) == 0 {
						k, err := r.ReadFrames(dst[:1+readRng.Intn(len(dst))])
						if errors.Is(err, io.EOF) {
							break
						}
						if err != nil {
							t.Fatalf("ReadFrames: %v", err)
						}
						for i := 0; i < k; i++ {
							o, ok := dst[i].Owner.(*countOwner)
							if !ok || !frameOf[o] || !bytes.Equal(dst[i].Data, o.data) {
								t.Fatalf("ReadFrames returned something other than a whole written frame (%d bytes)", len(dst[i].Data))
							}
							got = append(got, dst[i].Data...)
							dst[i].Owner.Release()
							dst[i] = Frame{}
						}
						continue
					}
					k, err := r.Read(buf[:1+readRng.Intn(len(buf))])
					got = append(got, buf[:k]...)
					if errors.Is(err, io.EOF) {
						break
					}
					if err != nil {
						t.Fatalf("Read: %v", err)
					}
				}
				if err := <-errc; err != nil {
					t.Fatalf("writer: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("read %d bytes that differ from the %d written", len(got), len(want))
				}
				assertReleasedOnce(t, "after the stream drained", owners)
			})
		}
	}
}

// blockedWrite runs write against a reader-less pipe of the given
// capacity until a write deadline stops it, returning the bytes it
// reported written and what the reader can then drain.
func blockedWrite(t *testing.T, capacity int, write func(*Conn) (int64, error)) (int64, []byte) {
	t.Helper()
	n := New(WithPipeCapacity(capacity))
	defer n.Close()
	client, server := pair(t, n, "10.1.0.9:7000")
	c := client.(*Conn)
	_ = c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	written, err := write(c)
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("write into a full pipe: err = %v, want a timeout", err)
	}
	_ = c.Close()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("draining the pipe: %v", err)
	}
	return written, got
}

// TestFrameWriterBlocksAtWriteBuffersByteCount checks that frames count
// against the pipe capacity byte for byte: a writer of owned frames stops
// at the same byte count as WriteBuffers of the same images, the reader
// sees the same prefix, the frame cut by the deadline is released once its
// admitted bytes are read, and the frame never admitted is released when
// the deadline fails the call.
func TestFrameWriterBlocksAtWriteBuffersByteCount(t *testing.T) {
	const capacity = 1000
	sizes := []int{300, 300, 300, 300, 300}
	frames, owners := ownedFrames(sizes...)
	bufs := make([][]byte, len(frames))
	for i, f := range frames {
		bufs[i] = f.Data
	}
	wantN, wantBytes := blockedWrite(t, capacity, func(c *Conn) (int64, error) { return c.WriteBuffers(bufs) })
	gotN, gotBytes := blockedWrite(t, capacity, func(c *Conn) (int64, error) { return c.WriteFrames(frames) })
	if wantN != capacity {
		t.Fatalf("WriteBuffers blocked after %d bytes, want %d", wantN, capacity)
	}
	if gotN != wantN {
		t.Errorf("WriteFrames blocked after %d bytes, WriteBuffers after %d", gotN, wantN)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("reader drained %d bytes after WriteFrames, %d after WriteBuffers, or they differ", len(gotBytes), len(wantBytes))
	}
	assertReleasedOnce(t, "after deadline and drain", owners)
}

// TestFramesReleasedExactlyOnce queues frames and then disposes of them
// every way a pipe can; each owner must be released exactly once.
func TestFramesReleasedExactlyOnce(t *testing.T) {
	const a, b = "10.2.0.1:7000", "10.2.0.2:7000"
	cases := []struct {
		name string
		// flaky drops every frame as it is written; otherwise dispose
		// gets rid of the queued frames.
		flaky   bool
		dispose func(t *testing.T, n *Network, w, r *Conn)
	}{
		{name: "ReadFrames", dispose: func(t *testing.T, _ *Network, _, r *Conn) {
			dst := make([]Frame, 8)
			k, err := r.ReadFrames(dst)
			if err != nil || k != 3 {
				t.Fatalf("ReadFrames = %d, %v; want 3 frames", k, err)
			}
			for _, f := range dst[:k] {
				f.Owner.Release()
			}
		}},
		{name: "Read", dispose: func(t *testing.T, _ *Network, _, r *Conn) {
			if _, err := io.ReadFull(r, make([]byte, 3*100)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "FlakyDrop", flaky: true},
		{name: "Sever", dispose: func(t *testing.T, n *Network, _, _ *Conn) { n.Sever(a, b) }},
		{name: "CrashNode", dispose: func(t *testing.T, n *Network, _, _ *Conn) { n.CrashNode(b) }},
		{name: "NetworkClose", dispose: func(t *testing.T, n *Network, _, _ *Conn) { n.Close() }},
		{name: "ReaderClose", dispose: func(t *testing.T, _ *Network, _, r *Conn) { _ = r.Close() }},
		{name: "WriterCloseThenReaderClose", dispose: func(t *testing.T, _ *Network, w, r *Conn) {
			_ = w.Close() // graceful: the frames stay deliverable
			dst := make([]Frame, 1)
			if k, err := r.ReadFrames(dst); err != nil || k != 1 {
				t.Fatalf("ReadFrames after the writer closed = %d, %v; want 1 frame", k, err)
			}
			dst[0].Owner.Release()
			_ = r.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := New()
			defer n.Close()
			client, server := pairFrom(t, n, a, b)
			w, r := client.(*Conn), server.(*Conn)
			if tc.flaky {
				n.Flaky(a, b, 1, 0)
			}
			frames, owners := ownedFrames(100, 100, 100)
			if k, err := w.WriteFrames(frames); err != nil || k != 300 {
				t.Fatalf("WriteFrames = %d, %v; want 300", k, err)
			}
			if tc.flaky {
				assertReleasedOnce(t, "dropped by a flaky link", owners)
				return
			}
			assertUnreleased(t, "queued", owners)
			tc.dispose(t, n, w, r)
			assertReleasedOnce(t, tc.name, owners)
		})
	}

	t.Run("WriteAfterClose", func(t *testing.T) {
		n := New()
		defer n.Close()
		client, _ := pairFrom(t, n, a, b)
		w := client.(*Conn)
		_ = w.Close()
		frames, owners := ownedFrames(10, 20)
		if _, err := w.WriteFrames(frames); !errors.Is(err, ErrPipeClosed) {
			t.Fatalf("WriteFrames after Close: err = %v, want ErrPipeClosed", err)
		}
		assertReleasedOnce(t, "refused after close", owners)
	})

	t.Run("SeverBlockedWriter", func(t *testing.T) {
		// A writer blocked part way into a frame holds queued, admitted
		// and unadmitted frames at once when the link breaks.
		n := New(WithPipeCapacity(250))
		defer n.Close()
		client, _ := pairFrom(t, n, a, b)
		w := client.(*Conn)
		frames, owners := ownedFrames(100, 100, 100, 100)
		errc := make(chan error, 1)
		go func() {
			_, err := w.WriteFrames(frames)
			errc <- err
		}()
		time.Sleep(10 * time.Millisecond)
		assertUnreleased(t, "blocked", owners)
		n.Sever(a, b)
		if err := <-errc; !errors.Is(err, ErrPipeClosed) {
			t.Fatalf("blocked WriteFrames after Sever: err = %v, want ErrPipeClosed", err)
		}
		assertReleasedOnce(t, "severed mid-write", owners)
	})
}

// TestConcurrentWritesStayWhole checks that concurrent write calls never
// interleave inside one another, even while blocked on a full pipe: each
// call's bytes arrive contiguously, as on a TCP socket.
func TestConcurrentWritesStayWhole(t *testing.T) {
	n := New(WithPipeCapacity(64))
	defer n.Close()
	client, server := pair(t, n, "10.1.0.7:7000")
	w := client.(*Conn)
	const writers, size = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames, _ := ownedFrames(size)
			for j := range frames[0].Data {
				frames[0].Data[j] = byte(i)
			}
			if i%2 == 0 {
				_, _ = w.WriteFrames(frames)
			} else {
				_, _ = w.Write(frames[0].Data)
			}
		}(i)
	}
	go func() {
		wg.Wait()
		_ = w.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != writers*size {
		t.Fatalf("read %d bytes, want %d", len(got), writers*size)
	}
	for off := 0; off < len(got); off += size {
		for _, c := range got[off : off+size] {
			if c != got[off] {
				t.Fatalf("write at offset %d interleaved with another", off)
			}
		}
	}
}

// BenchmarkPipe measures the vnet stream pipe on 5 KiB wire images: the
// copying path (WriteBuffers into the pipe, Read out of it) against the
// by-reference path (WriteFrames, ReadFrames). One op is one frame;
// ns/KiB is the cost per KiB carried.
func BenchmarkPipe(b *testing.B) {
	const frameSize, batch = 5 << 10, 8
	for _, byRef := range []bool{false, true} {
		name := "WriteBuffers+Read"
		if byRef {
			name = "WriteFrames+ReadFrames"
		}
		b.Run(name, func(b *testing.B) {
			n := New()
			defer n.Close()
			client, server := pair(b, n, "10.3.0.1:7000")
			w, r := client.(*Conn), server.(*Conn)
			img := make([]byte, frameSize)
			owner := nopOwner{}
			done := make(chan struct{})
			go func() {
				defer close(done)
				bufs := make([][]byte, batch)
				frames := make([]Frame, batch)
				for left := b.N; left > 0; left -= batch {
					k := min(left, batch)
					var err error
					if byRef {
						for i := range frames[:k] {
							frames[i] = Frame{Data: img, Owner: owner}
						}
						_, err = w.WriteFrames(frames[:k])
					} else {
						for i := range bufs[:k] {
							bufs[i] = img
						}
						_, err = w.WriteBuffers(bufs[:k])
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			want := int64(b.N) * frameSize
			var got int64
			buf := make([]byte, 64<<10)
			dst := make([]Frame, 2*batch)
			for got < want {
				if byRef {
					k, err := r.ReadFrames(dst)
					if err != nil {
						b.Fatal(err)
					}
					for _, f := range dst[:k] {
						got += int64(len(f.Data))
						f.Owner.Release()
					}
					if k > 0 {
						continue
					}
				}
				k, err := r.Read(buf)
				if err != nil {
					b.Fatal(err)
				}
				got += int64(k)
			}
			b.StopTimer()
			<-done
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(want>>10), "ns/KiB")
		})
	}
}

type nopOwner struct{}

func (nopOwner) Release() {}
