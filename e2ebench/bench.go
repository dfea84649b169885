package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Metric names, in the order BENCHMARK.json lists them.
var endToEndMetrics = []string{
	"tick_p50_ms", "tick_p95_ms", "node_samples_per_s", "ctl_cpu_ms_per_tick",
	"monitor_cpu_ms_per_tick", "ctl_rss_mb", "setup_s",
}

var perLayerMetrics = []string{
	"core.self_ms", "core.gap_fills", "core.failures",
	"sadc.run_ms", "hadoop_log.run_ms",
	"rpc.call_p50_ms", "rpc.call_p95_ms", "rpc.calls_per_tick", "rpc.sadc_kb_per_tick", "rpc.hadoop_log_kb_per_tick",
	"rpc.transport_failures", "rpc.reconnects", "rpc.breakers_open_max",
	"sync.partial_timestamps", "sync.dropped_timestamps", "sync.hold_ticks",
	"knn.run_ms", "ibuffer.run_ms", "analysis_bb.run_ms", "analysis_wb.run_ms", "ibuffer.dropped", "verdicts_per_tick",
	"print.run_ms", "print.kb_per_tick", "print.write_ms",
	"fleet.snapshot_ms", "fleet.alloc_kb_per_tick", "hadooplog.lines_per_tick",
	"go.allocs_per_tick", "go.alloc_kb_per_tick", "go.gc_cpu_ms_per_tick", "go.heap_live_mb",
	"sim.advance_ms", "sim.alloc_kb_per_tick",
	"fleet_cpu_ms_per_tick", "wire_kb_per_tick", "ttd_s", "false_alarms", "sample_loss_ratio",
	"env.contended_ticks", "trace.tick_mean_ms", "trace.tick_p50_traced_ms", "trace.tick_p50_untraced_ms", "trace.timed_ticks",
}

// tickRec is one timed tick of a traced run: its spans' durations and the
// per-tick deltas of every counter.
type tickRec struct {
	Tick       int        `json:"tick"`
	Spans      bool       `json:"spans"`
	StartNs    int64      `json:"start_ns"`
	EndNs      int64      `json:"end_ns"`
	AdvStartNs int64      `json:"adv_start_ns"`
	TickMs     float64    `json:"tick_ms"`
	Contended  bool       `json:"contended"`
	AdvMs      float64    `json:"advance_ms"`
	CtlCPUMs   float64    `json:"ctl_cpu_ms"`
	FleetCPUMs float64    `json:"fleet_cpu_ms"`
	RunMs      [7]float64 `json:"run_ms"` // by groupNames
	SadcBytes  uint64     `json:"sadc_bytes"`
	HlogBytes  uint64     `json:"hlog_bytes"`
	Calls      uint64     `json:"calls"`
	Fails      uint64     `json:"fails"`
	Reconnects uint64     `json:"reconnects"`
	Open       int        `json:"breakers_open"`
	Partial    uint64     `json:"sync_partial"`
	Dropped    uint64     `json:"sync_dropped"`
	IbufDrop   uint64     `json:"ibuffer_dropped"`
	GapFills   uint64     `json:"gap_fills"`
	Failures   uint64     `json:"failures"`
	Allocs     uint64     `json:"allocs"`
	AllocBytes uint64     `json:"alloc_bytes"`
	GCCPUMs    float64    `json:"gc_cpu_ms"`
	HeapLiveMB float64    `json:"heap_live_mb"`
	SinkBytes  int64      `json:"sink_bytes"`
	Rows       int        `json:"rows"`
	WriteMs    float64    `json:"sink_write_ms"`
	SnapMs     float64    `json:"snapshot_ms"`
	LogLines   int64      `json:"log_lines"`
	SimAlloc   int64      `json:"sim_alloc_bytes"`
	FleetAlloc int64      `json:"fleet_alloc_bytes"`
}

// span is one interval of the trace: the benchmark's own calls into each
// layer, and the module-run time the engine's telemetry attributes.
type span struct {
	Name   string `json:"name"`
	Tick   int    `json:"tick"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	// Calls > 0 marks an aggregate: Calls calls whose busy time summed to
	// End-Start, laid end to end from Start.
	Calls int `json:"calls,omitempty"`
}

func measure(w workload, o options, stderr io.Writer) (*result, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	model, err := trainModel(dir, o.seed)
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	traced := o.trace == 1

	// Set up several times and keep the last control node: setup_s is the
	// median, so one slow process start does not decide it.
	var setupS []float64
	var r *rig
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		rr, err := setup(w, o.seed, model, dir, traced)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := rr.gen.close(); err != nil {
				return nil, fmt.Errorf("setup: close fleet: %w", err)
			}
			runtime.GC() // the discarded set-up's cluster and engine
		} else {
			r = rr
		}
	}
	defer r.gen.close()

	log := newSinkLog(r.names, r.sched.FaultNode)
	log.corruptRow = o.corruptRow
	log.consume(r.sink, r.now0)
	var prevAdv advance
	for tick := 1; tick < warmTicks; tick++ {
		st, err := r.step(tick, false)
		if err != nil {
			return nil, err
		}
		log.consume(r.sink, st.adv.Now)
		prevAdv = st.adv
	}

	// Timed ticks. The fleet reports cumulative CPU and Snapshot time at
	// each step, so what its daemons spent serving tick t is read at step
	// t+1 (or at the final reading after the last tick).
	var (
		recs       []tickRec
		spans      []span
		ticks      []timedTick
		advMs      float64
		prev       = r.read()
		first      = prev
		histBefore map[float64]float64
		startBB    = totals(r, true)
		startWB    = totals(r, false)
		lastBB     = startBB
		lastWB     = startWB
		rss        float64
		resumed    = map[int]int{} // revived node -> first tick both pipelines delivered again
		sinkBytes0 = r.sink.bytes
	)
	served := func(cpu, snap, alloc int64) {
		ticks[len(ticks)-1].fleetMs = float64(cpu-prevAdv.CPUAfter) / 1e6
		if len(recs) > 0 {
			recs[len(recs)-1].FleetCPUMs = float64(cpu-prevAdv.CPUAfter) / 1e6
			recs[len(recs)-1].SnapMs = float64(snap-prevAdv.SnapNs) / 1e6
			recs[len(recs)-1].FleetAlloc = alloc - prevAdv.AllocAfter
		}
	}
	if traced {
		if histBefore, err = r.rpcCallHist(); err != nil {
			return nil, err
		}
	}
	lastTick := r.sched.lastTick()
	steal0 := stealSeconds()
	begin := time.Now()
	contention := newStealWindow(begin, steal0)
	clean := 0
	tick := warmTicks
	for ; ; tick++ {
		n := tick - warmTicks
		if n >= o.minTicks && tick > lastTick {
			el := time.Since(begin).Seconds()
			if el >= o.seconds && (clean >= o.minTicks || el >= 2*o.seconds) {
				break
			}
		}
		spansOn := traced && tick%2 == 0
		sinkB0, writeNs0, writes0 := r.sink.bytes, r.sink.writeNs, r.sink.writes
		advStart := time.Now().UnixNano()
		st, err := r.step(tick, spansOn)
		if err != nil {
			return nil, err
		}
		if tick == r.sched.FaultTick {
			log.faultAt = st.adv.Now.Add(-time.Second)
		}
		if n > 0 {
			served(st.adv.CPUBefore, st.adv.SnapNs, st.adv.AllocBefore)
		}
		rows0 := log.rows
		log.consume(r.sink, st.adv.Now)
		ms := float64(st.wallNs) / 1e6
		t := timedTick{ms: ms, ctlMs: float64(st.ctlCPUNs) / 1e6, clean: contention.quiet(time.Now(), stealSeconds())}
		if t.clean {
			clean++
		}
		ticks = append(ticks, t)
		advMs += float64(st.adv.AdvNs) / 1e6

		// Revived nodes: the first tick at or after the outage end where
		// both pipelines delivered a sample to the analysis stage.
		bb, wb := totals(r, true), totals(r, false)
		for _, og := range r.sched.Outages {
			if tick < og.End {
				continue
			}
			for i := og.First; i < og.First+og.Count; i++ {
				if _, done := resumed[i]; !done && bb[i] > lastBB[i] && wb[i] > lastWB[i] {
					resumed[i] = tick
				}
			}
		}
		lastBB, lastWB = bb, wb
		if n < o.minTicks {
			// Peak RSS over a fixed number of timed ticks: the simulator's
			// log buffers grow with every tick, so a faster run would
			// otherwise report more memory for simulating more. Set-up
			// transients (a cluster and engine per set-up, built in turn) are
			// not the monitor's running cost and stay out.
			rss = max(rss, rssMB())
		}

		if traced {
			cur := r.read()
			rec := tickRec{
				Tick: tick, Spans: spansOn, StartNs: st.startNs, EndNs: st.endNs, AdvStartNs: advStart,
				TickMs: ms, Contended: !t.clean, AdvMs: float64(st.adv.AdvNs) / 1e6, CtlCPUMs: float64(st.ctlCPUNs) / 1e6,
				SadcBytes: cur.sadcBytes - prev.sadcBytes, HlogBytes: cur.hlogBytes - prev.hlogBytes,
				Calls: cur.calls - prev.calls, Fails: cur.fails - prev.fails, Reconnects: cur.reconnects - prev.reconnects,
				Open: cur.open, Partial: cur.partial - prev.partial, Dropped: cur.dropped - prev.dropped,
				IbufDrop: cur.ibufDrop - prev.ibufDrop, GapFills: cur.gapFills - prev.gapFills, Failures: cur.failures - prev.failures,
				Allocs: st.rt.allocs, AllocBytes: st.rt.allocBytes,
				GCCPUMs: st.rt.gcCPUSec * 1e3, HeapLiveMB: float64(st.rt.heapLive) / (1 << 20),
				SimAlloc:  st.adv.SimAlloc,
				SinkBytes: r.sink.bytes - sinkB0, Rows: log.rows - rows0,
				WriteMs:  float64(r.sink.writeNs-writeNs0) / 1e6,
				LogLines: st.adv.LogLines - prevAdv.LogLines,
			}
			for g := range rec.RunMs {
				rec.RunMs[g] = (cur.runSec[g] - prev.runSec[g]) * 1e3
			}
			recs = append(recs, rec)
			spans = append(spans, tickSpans(rec, r.sink.writes-writes0)...)
			prev = cur
		}
		prevAdv = st.adv
	}
	timed := tick - warmTicks
	elapsed, steal := time.Since(begin).Seconds(), stealSeconds()-steal0
	rep, err := r.gen.final()
	if err != nil {
		return nil, err
	}
	served(rep.cpu, rep.snapNs, rep.alloc)
	end := r.read()
	var histAfter map[float64]float64
	if traced {
		if histAfter, err = r.rpcCallHist(); err != nil {
			return nil, err
		}
	}
	if err := r.gen.close(); err != nil {
		return nil, fmt.Errorf("close fleet: %w", err)
	}

	res := &result{}
	ft := float64(timed)
	// Latency and CPU figures come from the ticks no hypervisor contention
	// overlapped, unless too few were left to carry a p95.
	use := ticks
	if clean >= o.minTicks {
		use = make([]timedTick, 0, clean)
		for _, t := range ticks {
			if t.clean {
				use = append(use, t)
			}
		}
	}
	var sorted []float64
	var wallMs, ctlMs, fleetMs float64
	for _, t := range use {
		sorted = append(sorted, t.ms)
		wallMs += t.ms
		ctlMs += t.ctlMs
		fleetMs += t.fleetMs
	}
	sort.Float64s(sorted)
	fu := float64(len(use))
	res.set("tick_p50_ms", quantile(sorted, 0.5), "ms")
	res.set("tick_p95_ms", quantile(sorted, 0.95), "ms")
	res.set("node_samples_per_s", float64(w.Nodes)*fu/(wallMs/1e3), "1/s")
	res.set("ctl_cpu_ms_per_tick", ctlMs/fu, "ms")
	res.set("monitor_cpu_ms_per_tick", (ctlMs+fleetMs)/fu, "ms")
	res.set("ctl_rss_mb", rss, "MB")
	res.set("setup_s", median(setupS), "s")
	res.set("fleet_cpu_ms_per_tick", fleetMs/fu, "ms")
	res.set("env.contended_ticks", float64(timed-clean), "count")
	res.set("wire_kb_per_tick", float64(end.sadcBytes+end.hlogBytes-first.sadcBytes-first.hlogBytes)/1e3/ft, "kB")
	res.set("sim.advance_ms", advMs/ft, "ms")
	det := log.detection()
	res.detected = log.prefix
	res.set("ttd_s", det.TTD, "s")
	res.set("false_alarms", float64(det.FalseAlarms), "count")
	res.notes = append(res.notes, fmt.Sprintf("timed ticks %d over %.1fs, %.2f CPU-s stolen by the hypervisor; latency and CPU from %d ticks (p95 has %d beyond it), %d left out under contention; warm-up %d; set-ups %d; fault %s on %s at tick %d",
		timed, elapsed, steal, len(use), len(use)-int(0.95*fu)-1, timed-len(use), warmTicks, o.setups, w.Fault, r.names[r.sched.FaultNode], r.sched.FaultTick))

	// Sample accounting: every node owes one sample per timed tick to each
	// analysis (black box and white box).
	endBB, endWB := totals(r, true), totals(r, false)
	attemptedSamples := 2 * w.Nodes * timed
	delivered, lostHealthy := 0, 0
	for i := 0; i < w.Nodes; i++ {
		dbb, dwb := int(endBB[i]-startBB[i]), int(endWB[i]-startWB[i])
		delivered += min(dbb, timed) + min(dwb, timed)
		if !r.sched.everDown(i) {
			lostHealthy += max(0, timed-dbb) + max(0, timed-dwb)
		}
	}
	res.set("sample_loss_ratio", float64(attemptedSamples-delivered)/float64(attemptedSamples), "ratio")

	res.attempted = w.Nodes * timed
	res.failed = lostHealthy + log.disorder + log.badRows
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d samples lost on healthy nodes, %d rows out of order, %d unparsable rows",
		lostHealthy, log.disorder, log.badRows))
	if w.Deadrange {
		late := 0
		for _, og := range r.sched.Outages {
			for i := og.First; i < og.First+og.Count; i++ {
				if t, ok := resumed[i]; !ok || t-og.End > deadResumeBound {
					late++
				}
			}
		}
		res.failed += late
		res.notes = append(res.notes, fmt.Sprintf("oracle: %d revived nodes did not resume within %d ticks", late, deadResumeBound))
	}
	if rep.ref == nil {
		return nil, fmt.Errorf("no reference sink log")
	}
	refTicks := min(r.sched.steadyTicks(), len(log.tickEnd))
	mism := compare(log, rep.ref, refTicks)
	res.failed += mism
	res.notes = append(res.notes, fmt.Sprintf("oracle: %d of %d sink rows over ticks 0-%d differ from the lockstep serial reference", mism, len(rep.ref.hashes), refTicks-1))
	// The fault must be found; the one operation it stands for fails
	// otherwise.
	if det.TTD < 0 {
		res.failed++
		res.notes = append(res.notes, "oracle: the fault was never detected")
	}
	if want, ok := committedDetection(w, o); ok {
		if !detectionClose(log.prefix, want) {
			res.failed++
		}
		res.notes = append(res.notes, fmt.Sprintf("oracle: detection over ticks 0-%d: ttd %.0fs, %d false alarms; committed ttd %.0fs, %d false alarms (slack %.0fs, %.0f%%)",
			detectTicks-1, log.prefix.TTD, log.prefix.FalseAlarms, want.TTD, want.FalseAlarms, detectionSlackS, 100*detectionSlackShare))
	}
	res.correct = res.failed == 0

	if traced {
		perLayer(res, recs, histBefore, histAfter, log, sinkBytes0, r.sink.bytes, first, end, timed)
		path := o.traceOut
		if path == "" {
			path = filepath.Join(filepath.Dir(dir), fmt.Sprintf("trace-%s-%d.jsonl", w.Name, o.seed))
		}
		if err := writeTrace(path, recs, spans); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "trace written to "+path)
	}
	return res, nil
}

// timedTick is one timed tick's wall time, control CPU, fleet CPU, and
// whether hypervisor contention overlapped it.
type timedTick struct {
	ms, ctlMs, fleetMs float64
	clean              bool
}

// stealLimit is the share of the machine's CPU time the hypervisor may
// steal over the last second before the ticks in it count as contended.
// On a shared host, runs that lose several percent to steal run every
// layer 10-25% slower; with the limit they are measured on the ticks
// outside those periods instead.
const stealLimit = 0.04

// stealWindow tracks hypervisor steal over the last second of ticks.
type stealWindow struct {
	at    []time.Time
	steal []float64
}

func newStealWindow(t time.Time, steal float64) *stealWindow {
	return &stealWindow{at: []time.Time{t}, steal: []float64{steal}}
}

// quiet records a reading taken at t and reports whether the steal rate
// over the second before it stayed under stealLimit.
func (w *stealWindow) quiet(t time.Time, steal float64) bool {
	w.at, w.steal = append(w.at, t), append(w.steal, steal)
	// Keep the newest reading at least a second old as the base.
	for len(w.at) > 2 && t.Sub(w.at[1]) >= time.Second {
		w.at, w.steal = w.at[1:], w.steal[1:]
	}
	span := max(t.Sub(w.at[0]).Seconds(), 1)
	return (steal-w.steal[0])/(span*float64(runtime.NumCPU())) <= stealLimit
}

// stealSeconds is the machine's total CPU time stolen by the hypervisor
// (the steal column of /proc/stat), 0 where it cannot be read. Runs on a
// shared host differ mostly by it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / 100 // USER_HZ
}

func totals(r *rig, bb bool) []uint64 {
	ports := r.wbIn
	if bb {
		ports = r.bbIn
	}
	t := make([]uint64, len(ports))
	for i, p := range ports {
		t[i] = p.Total()
	}
	return t
}

// tickSpans lays out one traced tick as spans: the simulator step, the
// engine tick, and under it each layer's module-run time and the sink
// writes as aggregates.
func tickSpans(rec tickRec, writes int) []span {
	out := []span{
		{Name: "fleet.advance", Tick: rec.Tick, Start: rec.AdvStartNs, End: rec.AdvStartNs + int64(rec.AdvMs*1e6), Parent: "tick"},
		{Name: "engine.tick", Tick: rec.Tick, Start: rec.StartNs, End: rec.EndNs, Parent: "tick"},
		{Name: "tick", Tick: rec.Tick, Start: rec.AdvStartNs, End: rec.EndNs},
	}
	at := rec.StartNs
	for g, ms := range rec.RunMs {
		d := int64(ms * 1e6)
		out = append(out, span{Name: "module." + groupNames[g], Tick: rec.Tick, Start: at, End: at + d, Parent: "engine.tick", Calls: 1})
		at += d
	}
	if rec.Spans {
		out = append(out,
			span{Name: "sink.write", Tick: rec.Tick, Start: rec.StartNs, End: rec.StartNs + int64(rec.WriteMs*1e6), Parent: "module.print", Calls: max(writes, 1)},
			span{Name: "fleet.snapshot", Tick: rec.Tick, Start: rec.StartNs, End: rec.StartNs + int64(rec.SnapMs*1e6), Parent: "engine.tick", Calls: 1})
	}
	return out
}

func writeTrace(path string, recs []tickRec, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Span span `json:"span"`
		}{s}); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range recs {
		if err := enc.Encode(struct {
			Tick tickRec `json:"tick"`
		}{r}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perLayer derives the per-layer table from the traced ticks.
func perLayer(res *result, recs []tickRec, hb, ha map[float64]float64, log *sinkLog, sink0, sink1 int64, first, end counters, timed int) {
	ft := float64(timed)
	var tickSum, modSum float64
	var run [7]float64
	var calls, sadcB, hlogB, allocs, allocB, lines uint64
	var simAlloc, fleetAlloc int64
	var gcMs, snapMs, writeMs, heapMB float64
	var traced, untraced []float64
	openMax, rows := 0, 0
	for _, r := range recs {
		tickSum += r.TickMs
		for g, ms := range r.RunMs {
			run[g] += ms
			modSum += ms
		}
		calls += r.Calls
		sadcB += r.SadcBytes
		hlogB += r.HlogBytes
		allocs += r.Allocs
		allocB += r.AllocBytes
		gcMs += r.GCCPUMs
		heapMB += r.HeapLiveMB
		lines += uint64(r.LogLines)
		simAlloc += r.SimAlloc
		fleetAlloc += r.FleetAlloc
		openMax = max(openMax, r.Open)
		rows += r.Rows
		if r.Spans {
			snapMs += r.SnapMs
			writeMs += r.WriteMs
			traced = append(traced, r.TickMs)
		} else {
			untraced = append(untraced, r.TickMs)
		}
	}
	nSpan := float64(max(len(traced), 1))
	res.set("core.self_ms", (tickSum-modSum)/ft, "ms")
	res.set("core.gap_fills", float64(end.gapFills-first.gapFills), "count")
	res.set("core.failures", float64(end.failures-first.failures), "count")
	for g, name := range groupNames {
		res.set(name+".run_ms", run[g]/ft, "ms")
	}
	res.set("rpc.call_p50_ms", histQuantile(hb, ha, 0.5)*1e3, "ms")
	res.set("rpc.call_p95_ms", histQuantile(hb, ha, 0.95)*1e3, "ms")
	res.set("rpc.calls_per_tick", float64(calls)/ft, "count")
	res.set("rpc.sadc_kb_per_tick", float64(sadcB)/1e3/ft, "kB")
	res.set("rpc.hadoop_log_kb_per_tick", float64(hlogB)/1e3/ft, "kB")
	res.set("rpc.transport_failures", float64(end.fails-first.fails), "count")
	res.set("rpc.reconnects", float64(end.reconnects-first.reconnects), "count")
	res.set("rpc.breakers_open_max", float64(openMax), "count")
	res.set("sync.partial_timestamps", float64(end.partial-first.partial), "count")
	res.set("sync.dropped_timestamps", float64(end.dropped-first.dropped), "count")
	hold := 0.0
	if log.rows > 0 {
		hold = log.holdSum / float64(log.rows)
	}
	res.set("sync.hold_ticks", hold, "ticks")
	res.set("ibuffer.dropped", float64(end.ibufDrop-first.ibufDrop), "count")
	res.set("verdicts_per_tick", float64(rows)/ft, "count")
	res.set("print.kb_per_tick", float64(sink1-sink0)/1e3/ft, "kB")
	res.set("print.write_ms", writeMs/nSpan, "ms")
	res.set("fleet.snapshot_ms", snapMs/nSpan, "ms")
	res.set("hadooplog.lines_per_tick", float64(lines)/ft, "count")
	res.set("fleet.alloc_kb_per_tick", float64(fleetAlloc)/1e3/ft, "kB")
	res.set("sim.alloc_kb_per_tick", float64(simAlloc)/1e3/ft, "kB")
	res.set("go.allocs_per_tick", float64(allocs)/ft, "count")
	res.set("go.alloc_kb_per_tick", float64(allocB)/1e3/ft, "kB")
	res.set("go.gc_cpu_ms_per_tick", gcMs/ft, "ms")
	res.set("go.heap_live_mb", heapMB/ft, "MB")
	res.set("trace.tick_mean_ms", tickSum/ft, "ms")
	res.set("trace.tick_p50_traced_ms", median(traced), "ms")
	res.set("trace.tick_p50_untraced_ms", median(untraced), "ms")
	res.set("trace.timed_ticks", ft, "count")
}

// Detection slack: the simulator drifts a little between runs of one seed
// (see refRunner), which moves a verdict now and then, never by much.
const (
	detectionSlackS     = 5.0
	detectionSlackShare = 0.1
)

// committedDetection is the recorded outcome for this run's workload and
// seed at the workload's own size, if envelope.json has one.
func committedDetection(w workload, o options) (detection, bool) {
	if def, _ := workloadByName(w.Name); def.Nodes != w.Nodes || o.minTicks < minTimedTicks {
		return detection{}, false
	}
	for _, d := range committed.Detection {
		if d.Workload == w.Name && d.Seed == o.seed {
			return d.detection, true
		}
	}
	return detection{}, false
}

func detectionClose(got, want detection) bool {
	if got.TTD < 0 || math.Abs(got.TTD-want.TTD) > detectionSlackS {
		return false
	}
	return math.Abs(float64(got.FalseAlarms-want.FalseAlarms)) <= max(detectionSlackS, detectionSlackShare*float64(want.FalseAlarms))
}
