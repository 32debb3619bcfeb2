package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"repro/internal/admission"
	"repro/internal/bandwidth"
	"repro/internal/engine"
	"repro/internal/message"
	mt "repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ratio returns a/b, or 0 when b is 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta merges, over all engines, the delta of one report histogram
// across the window.
func histDelta(p *phase, pick func(*protocol.Report) mt.HistogramSnapshot) mt.HistogramSnapshot {
	var out mt.HistogramSnapshot
	for i := range p.rep1 {
		d := pick(&p.rep1[i])
		d.Sub(pick(&p.rep0[i]))
		out.Merge(d)
	}
	return out
}

func sendBatch(r *protocol.Report) mt.HistogramSnapshot { return r.SendBatchHist }

// histMean is the mean of a pow2 histogram taking each bucket at its
// lower edge (bucket 0 holds the values 0 and 1 and counts as 1), which
// is exact for the power-of-two batch sizes the engine's defaults give.
func histMean(h mt.HistogramSnapshot) float64 {
	var sum, n float64
	for i, c := range h.Counts {
		v := float64(mt.BucketLow(i))
		if i == 0 {
			v = 1
		}
		sum += v * float64(c)
		n += float64(c)
	}
	return ratio(sum, n)
}

// rtValue finds a runtime metric in a sample set.
func rtValue(s []metrics.Sample, name string) metrics.Value {
	for _, x := range s {
		if x.Name == name {
			return x.Value
		}
	}
	return metrics.Value{}
}

func rtScalar(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// rtHistQuantile returns the q-quantile (seconds, the bucket's upper
// edge) of a runtime histogram's delta across the window.
func rtHistQuantile(p *phase, name string, q float64) float64 {
	a, b := rtValue(p.rt0, name), rtValue(p.rt1, name)
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	var total uint64
	d := make([]uint64, len(hb.Counts))
	for i := range d {
		d[i] = hb.Counts[i] - ha.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= need {
			if up := hb.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return hb.Buckets[i]
		}
	}
	return 0
}

// engineLayers derives the engine, queue, message, trace, admission,
// loss and runtime metrics of the untraced run from the engines' public
// getters and runtime/metrics.
func engineLayers(p *phase, out map[string]metric) {
	sw := histDelta(p, func(r *protocol.Report) mt.HistogramSnapshot { return r.SwitchBatchHist })
	sb := histDelta(p, sendBatch)
	qd := histDelta(p, func(r *protocol.Report) mt.HistogramSnapshot { return r.QueueDataHist })
	qc := histDelta(p, func(r *protocol.Report) mt.HistogramSnapshot { return r.QueueCtrlHist })
	out["engine.switch.batch_mean"] = metric{histMean(sw), "msgs"}
	out["engine.sender.batch_mean"] = metric{histMean(sb), "msgs"}
	out["queue.data_wait_p50_us"] = metric{float64(qd.Quantile(0.5)) / 1e3, "us"}
	out["queue.data_wait_p99_us"] = metric{float64(qd.Quantile(0.99)) / 1e3, "us"}
	out["queue.ctrl_wait_p99_us"] = metric{float64(qc.Quantile(0.99)) / 1e3, "us"}

	var maxSum, meanSum, switched, events float64
	var handoffPeak uint32
	for i := range p.rep1 {
		s0, s1 := p.rep0[i].Shards, p.rep1[i].Shards
		var mx, sum float64
		for k := range s1 {
			d := float64(s1[k].Switched - s0[k].Switched)
			sum += d
			mx = math.Max(mx, d)
			if s1[k].HandoffPeak > handoffPeak {
				handoffPeak = s1[k].HandoffPeak
			}
		}
		if len(s1) > 0 {
			maxSum += mx
			meanSum += sum / float64(len(s1))
		}
		switched += sum
		events += float64(p.cur1[i] - p.cur0[i])
	}
	out["engine.switch.lane_skew"] = metric{ratio(maxSum, meanSum), "ratio"}
	out["engine.switch.handoff_peak"] = metric{float64(handoffPeak), "msgs"}
	out["engine.switch.shards"] = metric{float64(len(p.rep1[0].Shards)), "count"}
	out["trace.events_per_msg"] = metric{ratio(events, switched), "events/msg"}

	msgs := float64(p.msgs)
	out["message.allocs_per_msg"] = metric{ratio(rtScalar(rtValue(p.rt1, rmAllocObjs))-rtScalar(rtValue(p.rt0, rmAllocObjs)), msgs), "allocs/msg"}
	out["message.alloc_bytes_per_msg"] = metric{ratio(rtScalar(rtValue(p.rt1, rmAllocBytes))-rtScalar(rtValue(p.rt0, rmAllocBytes)), msgs), "B/msg"}

	var c mt.CountersSnapshot
	for _, x := range p.counters {
		c.MsgsDropped += x.MsgsDropped
		c.MsgsShed += x.MsgsShed
		c.DgramBad += x.DgramBad
		c.DgramNoLink += x.DgramNoLink
		c.DgramRefused += x.DgramRefused
		c.HandshakesFailed += x.HandshakesFailed
		c.ConnsShed += x.ConnsShed
	}
	out["engine.dropped"] = metric{float64(c.MsgsDropped), "msgs"}
	out["engine.shed"] = metric{float64(c.MsgsShed), "msgs"}
	out["engine.dgram_bad"] = metric{float64(c.DgramBad), "dgrams"}
	out["engine.dgram_nolink"] = metric{float64(c.DgramNoLink), "dgrams"}
	out["engine.dgram_refused"] = metric{float64(c.DgramRefused), "msgs"}
	out["engine.hs_failed"] = metric{float64(c.HandshakesFailed), "conns"}
	out["admission.conns_shed"] = metric{float64(c.ConnsShed), "conns"}
	var gaps, disorder int64
	for _, s := range p.cluster.sinks {
		gaps += s.gaps.Load()
		disorder += s.disorder.Load()
	}
	out["sink.gaps"] = metric{float64(gaps), "msgs"}
	out["sink.disorder"] = metric{float64(disorder), "msgs"}

	out["runtime.sched_lat_p99_us"] = metric{rtHistQuantile(p, rmSchedLat, 0.99) * 1e6, "us"}
	out["runtime.gc_pause_p99_us"] = metric{rtHistQuantile(p, rmGCPauses, 0.99) * 1e6, "us"}
	gc := rtScalar(rtValue(p.rt1, rmGCCPU)) - rtScalar(rtValue(p.rt0, rmGCCPU))
	all := rtScalar(rtValue(p.rt1, rmTotalCPU)) - rtScalar(rtValue(p.rt0, rmTotalCPU))
	out["runtime.gc_cpu_frac"] = metric{ratio(gc, all), "ratio"}

	out["loadgen.late_p50_ms"] = metric{quantile(p.late, 0.5) / 1e6, "ms"}
	out["loadgen.late_p99_ms"] = metric{quantile(p.late, 0.99) / 1e6, "ms"}
	out["loadgen.late_max_ms"] = metric{float64(p.lateMax) / 1e6, "ms"}
}

// substrateLayers derives the wrapper counters and span metrics of the
// traced run.
func substrateLayers(p *phase, rep traceReport, out map[string]metric) {
	st := p.cluster.wrapped
	kb := func(b int64) float64 { return float64(b) / 1024 }
	v := &st.vnet
	out["vnet.write_ns_per_kb"] = metric{ratio(float64(v.writeNs.Load()), kb(v.writeBytes.Load())), "ns/KiB"}
	out["vnet.read_ns_per_kb"] = metric{ratio(float64(v.readNs.Load()), kb(v.readBytes.Load())), "ns/KiB"}
	out["vnet.bytes_per_write"] = metric{ratio(float64(v.writeBytes.Load()), float64(v.writes.Load())), "B"}
	t := &st.tcp
	out["tcp.write_ns_per_msg"] = metric{ratio(float64(t.writeNs.Load()), float64(t.writeMsgs.Load())), "ns/msg"}
	out["tcp.msgs_per_write"] = metric{ratio(float64(t.writeMsgs.Load()), float64(t.writes.Load())), "msgs"}
	out["tcp.read_ns_per_msg"] = metric{ratio(float64(t.readNs.Load()), float64(t.readMsgs.Load())), "ns/msg"}
	u := &st.udp
	out["udp.dgrams_per_msg"] = metric{ratio(float64(u.writes.Load()), float64(u.writeMsgs.Load())), "dgrams/msg"}
	out["udp.write_ns_per_dgram"] = metric{ratio(float64(u.writeNs.Load()), float64(u.writes.Load())), "ns"}
	out["udp.read_ns_per_dgram"] = metric{ratio(float64(u.readNs.Load()), float64(u.reads.Load())), "ns"}
	drop := 0.0
	if w := u.writes.Load(); w > 0 {
		drop = 1 - float64(u.reads.Load())/float64(w)
	}
	out["udp.drop_frac"] = metric{drop, "ratio"}

	us := func(v []int64, q float64) float64 { return quantile(v, q) / 1e3 }
	out["engine.hop.switch_to_write_us.p50"] = metric{us(rep.switchToWrite, 0.5), "us"}
	out["engine.hop.switch_to_write_us.p99"] = metric{us(rep.switchToWrite, 0.99), "us"}
	out["engine.hop.write_to_process_us.p50"] = metric{us(rep.writeToProc, 0.5), "us"}
	out["engine.hop.write_to_process_us.p99"] = metric{us(rep.writeToProc, 0.99), "us"}
	out["engine.alg.process_self_ns.p50"] = metric{quantile(rep.processSelf, 0.5), "ns"}
	out["engine.alg.send_ns.p50"] = metric{quantile(rep.sendNs, 0.5), "ns"}
	out["engine.switch.parked_peak"] = metric{float64(p.parkedPeak), "msgs"}
	out["tracing.spans"] = metric{float64(rep.spans), "count"}
}

// timeOp returns the median over reps of the mean ns per call of fn,
// run n times per rep.
func timeOp(reps, n int, fn func(i int)) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sinkVar keeps timed results observable so calls are not elided.
var sinkVar int

// directLayers times direct calls into each layer's public functions at
// the workload's parameters.
func directLayers(w *workload, out map[string]metric) {
	const reps, n = 5, 20000
	id := message.MakeID("10.0.0.1", 7000)
	pool := message.NewPool()
	m := pool.Get(dataType, id, 1, 7, w.MsgSize)
	wire := append([]byte(nil), m.Wire()...)
	m.Release()

	out["message.decode_ns"] = metric{timeOp(reps, n, func(int) {
		d, k, err := message.Decode(wire)
		if err == nil {
			sinkVar += k + d.Len()
		}
	}), "ns"}
	out["message.pool_ns"] = metric{timeOp(reps, n, func(i int) {
		x := pool.Get(dataType, id, 1, uint32(i), w.MsgSize)
		sinkVar += x.Len()
		x.Release()
	}), "ns"}

	// Fragment the wire image exactly as the datagram lane does and feed
	// every fragment of each message to one reassembler.
	chunk := message.DefaultDgramMTU - message.DgramHeaderSize
	frags, err := message.DgramFragments(len(wire), message.DefaultDgramMTU)
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	ra := message.NewReassembler(message.DefaultReassemblyPending)
	msgs := n / frags
	out["message.reasm_ns_per_frag"] = metric{timeOp(reps, msgs, func(i int) {
		for f := 0; f < frags; f++ {
			end := min((f+1)*chunk, len(wire))
			h := message.DgramHeader{Src: id, MsgID: uint32(i), FragIdx: uint16(f), FragCnt: uint16(frags)}
			if b, ok := ra.Accept(h, wire[f*chunk:end]); ok {
				sinkVar += len(b)
			}
		}
	}) / float64(frags), "ns"}

	// Limiter.Wait at the workload's shaped rate with tokens available:
	// each rep lets the bucket fill for one burst window, then spends at
	// most half of it. Unshaped workloads time the lock-free skip.
	rate := w.upBW()
	wire1 := len(wire)
	calls := n
	if rate > 0 {
		calls = max(1, int(float64(rate)*bandwidth.DefaultBurstWindow.Seconds()/2)/wire1)
	}
	lims := make([]*bandwidth.Limiter, reps)
	for r := range lims {
		lims[r] = bandwidth.NewLimiter(rate)
	}
	time.Sleep(2 * bandwidth.DefaultBurstWindow)
	per := make([]float64, reps)
	for r := range lims {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			lims[r].Wait(wire1)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
		lims[r].Close()
	}
	out["bandwidth.wait_ns"] = metric{median(per), "ns"}

	rec := trace.New(engine.DefaultEventLog)
	out["trace.emit_ns"] = metric{timeOp(reps, n, func(i int) {
		rec.Emit(trace.KindSwitch, id, 1, int64(i))
	}), "ns"}

	// Admission at shipped defaults, spreading sources so the per-source
	// rate limit never refuses.
	gate := admission.New(admission.Config{})
	hosts := make([]string, 512)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("10.1.%d.%d", i/250, i%250+1)
	}
	out["admission.admit_ns"] = metric{timeOp(reps, 2000, func(i int) {
		if d, _ := gate.Admit(hosts[i%len(hosts)]); d == admission.Admitted {
			gate.Release()
		}
	}), "ns"}
}
