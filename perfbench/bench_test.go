package main

import (
	"encoding/json"
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/engine"
	"repro/internal/vnet"
)

// contract is the part of BENCHMARK.json the tests hold the program to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

// shortConfig shrinks a workload to a smoke-test run.
func shortConfig(t *testing.T, name string) *runConfig {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.WarmupMs, w.SetupReps = 200, 2
	return &runConfig{w: w, seed: 7, seconds: 0.5, faults: noFaults}
}

// TestSmokeEveryMetricPrinted runs a short untraced and traced run of
// every workload and checks that exactly the metrics BENCHMARK.json names
// are reported, each with its unit, and that the run's own checks pass.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			cfg := shortConfig(t, cw.Name)
			for _, traced := range []bool{false, true} {
				res, _, err := run(cfg, traced, t.TempDir())
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d", traced, res.Correct, res.Attempted)
				}
				want := c.EndToEnd
				if traced {
					want = c.PerLayer
				}
				named := map[string]bool{}
				for _, m := range want {
					named[m.Name] = true
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s unit %q, want %q", traced, m.Name, got.Unit, m.Unit)
					}
				}
				for name := range res.Metrics {
					if !named[name] {
						t.Errorf("traced=%v: metric %s is not in BENCHMARK.json", traced, name)
					}
				}
				if traced && !cfg.w.Paced {
					// The wrappers must leave the sender's batching alone.
					// Closed-loop senders drain full batches either way;
					// paced batch sizes follow timing, which tracing moves.
					u, tr := res.Metrics["engine.sender.batch_mean"].Value, res.Metrics["engine.sender.batch_mean_traced"].Value
					if u <= 0 || tr/u < 0.75 || tr/u > 1.25 {
						t.Errorf("sender batch mean %.3g untraced vs %.3g traced", u, tr)
					}
				}
			}
		})
	}
}

// TestChecksFailTheRun injects a seq gap and a corrupted payload into the
// generated traffic and expects the sinks to fail the run.
func TestChecksFailTheRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    faults
	}{
		{"gap", faults{skipSeq: 50, corruptSeq: -1}},
		{"corrupt", faults{skipSeq: -1, corruptSeq: 60}},
	} {
		for _, wl := range []string{"chain5_shaped_paced", "relay_tcp_small"} {
			t.Run(tc.name+"/"+wl, func(t *testing.T) {
				cfg := shortConfig(t, wl)
				cfg.w.SetupReps = 1
				cfg.faults = tc.f
				res, _, err := run(cfg, false, "")
				if err != nil {
					t.Fatal(err)
				}
				if res.Correct {
					t.Fatalf("run with injected %s passed its checks", tc.name)
				}
			})
		}
	}
}

// optionalSet reports which of the optional methods the engine
// type-asserts on a connection v implements.
func optionalSet(v any) [3]bool {
	_, bw := v.(buffersWriter)
	_, pw := v.(packetBatchWriter)
	_, pr := v.(packetBatchReader)
	return [3]bool{bw, pw, pr}
}

// TestWrappersKeepEngineFastPaths checks that every traced wrapper has
// exactly the optional methods of the connection it wraps, for vnet and
// TCP stream conns (dialed and accepted) and vnet and UDP packet conns.
func TestWrappersKeepEngineFastPaths(t *testing.T) {
	vn := vnet.New()
	defer vn.Close()
	cases := []struct {
		name string
		tt   *tracedTransport
	}{
		{"vnet", &tracedTransport{inner: engine.VNet{Net: vn}}},
		{"tcp", &tracedTransport{inner: engine.TCP{}}},
	}
	for _, tc := range cases {
		tc.tt.tr, tc.tt.st = newTracer(1), &wrapStats{}
		addr := "10.9.9.1:7000"
		if tc.name == "tcp" {
			ids, err := freeIDs(1)
			if err != nil {
				t.Fatal(err)
			}
			addr = ids[0].Addr()
		}
		inner := tc.tt.inner
		l, err := tc.tt.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan net.Conn, 1)
		go func() {
			c, err := l.Accept()
			if err != nil {
				t.Error(err)
			}
			accepted <- c
		}()
		dialed, err := tc.tt.DialFrom("10.9.9.2:7000", addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		acc := <-accepted
		raw, err := inner.DialFrom("10.9.9.3:7000", addr, 0)
		if err != nil {
			t.Fatal(err)
		}
		rawAcc, err := l.(*tracedListener).Listener.Accept()
		if err != nil {
			t.Fatal(err)
		}
		want := optionalSet(raw)
		if tc.name == "vnet" && !want[0] {
			t.Fatal("vnet conns no longer offer WriteBuffers; update the wrapper test")
		}
		if got := optionalSet(dialed); got != want {
			t.Errorf("%s dialed conn: wrapper methods %v, inner %v", tc.name, got, want)
		}
		if got, want := optionalSet(acc), optionalSet(rawAcc); got != want {
			t.Errorf("%s accepted conn: wrapper methods %v, inner %v", tc.name, got, want)
		}
		for _, c := range []net.Conn{dialed, acc, raw, rawAcc} {
			_ = c.Close()
		}
		_ = l.Close()

		pc, err := inner.(engine.PacketTransport).ListenPacket(addr)
		if err != nil {
			t.Fatal(err)
		}
		want = optionalSet(pc)
		if tc.name == "vnet" && (!want[1] || !want[2]) {
			t.Fatal("vnet packet conns no longer offer the batch paths; update the wrapper test")
		}
		if got := optionalSet(tc.tt.wrapPacket(pc)); got != want {
			t.Errorf("%s packet conn: wrapper methods %v, inner %v", tc.name, got, want)
		}
		_ = pc.Close()
	}
}

// TestUDPBufferedKeepsTheConn checks that the enlarged-buffer transport
// hands the engine the *net.UDPConn itself, so its datagram path is the
// one engine.TCP gives, and that the receive buffer took.
func TestUDPBufferedKeepsTheConn(t *testing.T) {
	const want = 1 << 20
	pc, err := udpBuffered{rcvbuf: want}.ListenPacket("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	uc, ok := pc.(*net.UDPConn)
	if !ok {
		t.Fatalf("ListenPacket returned %T, want *net.UDPConn", pc)
	}
	raw, err := uc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var got int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || gerr != nil {
		t.Fatal(err, gerr)
	}
	// The kernel caps the request at net.core.rmem_max.
	limit := want
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		if m, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && m < limit {
			limit = m
		}
	}
	if got < limit {
		t.Errorf("receive buffer %d bytes, want at least %d", got, limit)
	}
}
