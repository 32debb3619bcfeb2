package main

import "fmt"

// transport names the substrate a workload's engines run on.
type transport string

const (
	viaVNet transport = "vnet"       // in-process virtual network, stream lane
	viaTCP  transport = "tcp"        // kernel TCP over loopback
	viaUDP  transport = "udp+tcpctl" // DatagramData: data on UDP, control on TCP
)

// topology names how the engines are wired.
type topology string

const (
	// chain: node 0 is the source, node n-1 the sink, every other node
	// forwards app 1 to its successor.
	chain topology = "chain"
	// relay: nodes 0 and 1 are the sources of apps 1 and 2, node 2 the
	// relay, which routes app 1 to node 3 and app 2 to node 4.
	relay topology = "relay"
)

// workload is one named input set. Every field is a workload parameter
// and is printed with each result.
type workload struct {
	Name      string    `json:"name"`
	Transport transport `json:"transport"`
	Topology  topology  `json:"topology"`
	Nodes     int       `json:"nodes"`
	MsgSize   int       `json:"msg_size"`
	// Paced workloads send open loop: each source draws seeded
	// exponential gaps with mean 1/Rate seconds and every message is
	// timed from its due time. Bulk workloads send closed loop: each
	// source keeps at most Window messages between submission and delivery.
	Paced  bool    `json:"paced"`
	Rate   float64 `json:"rate_msgs_per_s_per_source,omitempty"`
	Window int     `json:"window_msgs_per_source,omitempty"`
	// UpBWFactor, when nonzero, sets every engine's UpBW to that multiple
	// of the offered wire bytes per second.
	UpBWFactor float64 `json:"up_bw_factor,omitempty"`
	// LatEvery records the latency of one message in LatEvery at the
	// sinks (1 = every message).
	LatEvery int `json:"lat_every"`
	// TraceEvery samples one seq in TraceEvery for spans in the traced
	// run.
	TraceEvery int `json:"trace_every"`
	// Warmup is how long the workload runs after set-up before the
	// measured window opens, in milliseconds.
	WarmupMs int `json:"warmup_ms"`
	// SetupReps is how many times set-up is repeated; setup_s is the
	// median.
	SetupReps int `json:"setup_reps"`
}

// apps lists the flows: each app has one source and one sink.
func (w *workload) apps() []uint32 {
	if w.Topology == relay {
		return []uint32{1, 2}
	}
	return []uint32{1}
}

func (w *workload) sources() int { return len(w.apps()) }

// sourceOf reports the node that originates app.
func (w *workload) sourceOf(app uint32) int {
	if w.Topology == relay {
		return int(app) - 1
	}
	return 0
}

// downstreamOf reports the node that node i forwards app to, or -1.
func (w *workload) downstreamOf(i int, app uint32) int {
	switch w.Topology {
	case chain:
		if i < w.Nodes-1 {
			return i + 1
		}
	case relay:
		switch {
		case i == int(app)-1:
			return 2
		case i == 2:
			return 2 + int(app)
		}
	}
	return -1
}

// upstreamOf reports the node that forwards app to node i, or -1.
func (w *workload) upstreamOf(i int, app uint32) int {
	for j := 0; j < w.Nodes; j++ {
		if w.downstreamOf(j, app) == i {
			return j
		}
	}
	return -1
}

// reliable reports whether the data lane must deliver every message in
// order.
func (w *workload) reliable() bool { return w.Transport != viaUDP }

// upBW is the per-engine uplink cap in bytes/sec (0 = unshaped).
func (w *workload) upBW() int64 {
	if w.UpBWFactor == 0 {
		return 0
	}
	wire := float64(w.MsgSize + 24)
	return int64(w.UpBWFactor * w.Rate * float64(w.sources()) * wire)
}

var workloads = []workload{
	{
		Name: "chain16_bulk", Transport: viaVNet, Topology: chain, Nodes: 16,
		MsgSize: 5 << 10, Window: 512,
		LatEvery: 16, TraceEvery: 256, WarmupMs: 1000, SetupReps: 5,
	},
	{
		Name: "relay_tcp_small", Transport: viaTCP, Topology: relay, Nodes: 5,
		MsgSize: 256, Window: 2048,
		LatEvery: 64, TraceEvery: 1024, WarmupMs: 1000, SetupReps: 5,
	},
	{
		Name: "chain5_shaped_paced", Transport: viaVNet, Topology: chain, Nodes: 5,
		MsgSize: 256, Paced: true, Rate: 10000, UpBWFactor: 4,
		LatEvery: 1, TraceEvery: 32, WarmupMs: 1000, SetupReps: 5,
	},
	{
		Name: "relay_udp_paced", Transport: viaUDP, Topology: relay, Nodes: 5,
		MsgSize: 4 << 10, Paced: true, Rate: 400,
		LatEvery: 1, TraceEvery: 2, WarmupMs: 1000, SetupReps: 5,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
