// Command perfbench is the repository's benchmark. It boots real engines
// through their public API, drives one named workload from this process,
// checks every delivered message, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": "U"}}}
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// gomaxprocs is set before the first engine boots, so every engine runs
// its default shard count, GOMAXPROCS, at one. On a small host shared
// with other tenants a process that keeps every vCPU busy stalls whenever
// the host takes CPU from any of them; one busy thread the kernel can
// move to a free vCPU (README.md, "Why one core").
const gomaxprocs = 1

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta describes the run; it is printed before the result.
type meta struct {
	Workload   workload `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      int      `json:"trace"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Shards     int      `json:"engine_shards"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	LatSamples int      `json:"latency_samples"`
	LatP50     float64  `json:"latency_p50_ms"`
	LatP90     float64  `json:"latency_p90_ms"`
	LatP99     float64  `json:"latency_p99_ms"`
	UpBW       int64    `json:"up_bw_bytes_per_s"`
	UDPRcvBuf  int      `json:"udp_rcvbuf_bytes,omitempty"`
	Spans      string   `json:"spans_file,omitempty"`
}

// commit reports the git revision the binary was built from, marked
// "-dirty" when the tree had uncommitted changes, or "unknown" outside a
// git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return rev + dirty
}

// sliceMedian is the median over the window's slices of f.
func (p *phase) sliceMedian(f func(sl slice) float64) float64 {
	v := make([]float64, len(p.slices))
	for i, sl := range p.slices {
		v[i] = f(sl)
	}
	return median(v)
}

// endToEnd computes the bounded user-visible metrics of an untraced run:
// the goodput, CPU and heap figures are medians over the window's slices.
func endToEnd(p *phase) map[string]metric {
	return map[string]metric{
		"goodput_mbps":   {p.sliceMedian(func(sl slice) float64 { return sl.goodput }), "MiB/s"},
		"delivery_ratio": {ratio(float64(p.valid), float64(p.attempted)), "ratio"},
		"cpu_us_per_msg": {p.sliceMedian(func(sl slice) float64 { return sl.cpuPer }), "us"},
		"heap_peak_mb":   {p.sliceMedian(func(sl slice) float64 { return sl.heap }), "MiB"},
		"setup_s":        {median(p.setups), "s"},
	}
}

// latencies computes the latency quantiles. They are reported but carry
// no bound (see README.md): between runs they follow the host's CPU
// steal more than the program.
func latencies(p *phase) map[string]metric {
	return map[string]metric{
		"latency.p50_ms": {p.sliceMedian(func(sl slice) float64 { return sl.p50 }), "ms"},
		"latency.p90_ms": {p.sliceMedian(func(sl slice) float64 { return sl.p90 }), "ms"},
		"latency.p99_ms": {p.sliceMedian(func(sl slice) float64 { return sl.p99 }), "ms"},
	}
}

// run executes one invocation and returns its result and metadata.
func run(cfg *runConfig, traced bool, spanDir string) (result, meta, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	m := meta{Workload: cfg.w, Seed: cfg.seed, Seconds: cfg.seconds, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(), UpBW: cfg.w.upBW()}
	if cfg.w.Transport == viaUDP {
		m.UDPRcvBuf = udpRcvBuf
	}
	p0, err := runPhase(cfg, false)
	if err != nil {
		return result{}, m, err
	}
	m.Shards = len(p0.rep1[0].Shards)
	m.LatSamples = p0.nlats
	res := result{Correct: p0.correct(), Attempted: p0.attempted, Failed: p0.attempted - p0.valid}
	errs := p0.errs
	e2e := endToEnd(p0)
	lat := latencies(p0)
	m.LatP50, m.LatP90, m.LatP99 = lat["latency.p50_ms"].Value, lat["latency.p90_ms"].Value, lat["latency.p99_ms"].Value
	if !traced {
		res.Metrics = e2e
	} else {
		m.Trace = 1
		p1, err := runPhase(cfg, true)
		if err != nil {
			return result{}, m, err
		}
		errs = append(errs, p1.errs...)
		res.Correct = res.Correct && p1.correct()
		res.Attempted += p1.attempted
		res.Failed += p1.attempted - p1.valid
		path := ""
		if spanDir != "" {
			if err := os.MkdirAll(spanDir, 0o755); err != nil {
				return result{}, m, fmt.Errorf("span dir: %w", err)
			}
			path = filepath.Join(spanDir, "spans-"+cfg.w.Name+".jsonl")
			m.Spans = path
		}
		rep, err := p1.tr.analyze(p1.cluster, path)
		if err != nil {
			return result{}, m, err
		}
		out := map[string]metric{}
		for k, v := range lat {
			out[k] = v
		}
		engineLayers(p0, out)
		substrateLayers(p1, rep, out)
		directLayers(&cfg.w, out)
		// Tracing overhead: the traced run against the untraced one of
		// the same invocation.
		t := endToEnd(p1)
		over := func(name string) float64 { return ratio(t[name].Value, e2e[name].Value) - 1 }
		out["tracing.goodput_change"] = metric{over("goodput_mbps"), "ratio"}
		out["tracing.cpu_per_msg_change"] = metric{over("cpu_us_per_msg"), "ratio"}
		out["tracing.lat_p50_change"] = metric{ratio(latencies(p1)["latency.p50_ms"].Value, m.LatP50) - 1, "ratio"}
		out["engine.sender.batch_mean_traced"] = metric{histMean(histDelta(p1, sendBatch)), "msgs"}
		res.Metrics = out
		fmt.Fprintf(os.Stderr, "tracing overhead on %s:", cfg.w.Name)
		for _, k := range sortedKeys(e2e) {
			fmt.Fprintf(os.Stderr, " %s %.4g->%.4g", k, e2e[k].Value, t[k].Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", e)
	}
	return res, m, nil
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured window, seconds")
	traceFlag := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	spanDir := flag.String("span-dir", defaultSpanDir(), "directory the traced run writes its spans to")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, faults: noFaults}
	res, m, err := run(cfg, *traceFlag == 1, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	mb, _ := json.Marshal(m)
	fmt.Println("meta", string(mb))
	if *traceFlag != 1 {
		fmt.Printf("info   latency p50 %.4g ms, p90 %.4g ms, p99 %.4g ms (%d samples, not bounded)\n", m.LatP50, m.LatP90, m.LatP99, m.LatSamples)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("metric %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(rb))
	if !res.Correct {
		os.Exit(1)
	}
}

// defaultSpanDir puts spans beside the build output.
func defaultSpanDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// sortedKeys orders metric names for printing.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
