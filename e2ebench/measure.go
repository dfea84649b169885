package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// vclock is the control node's virtual clock in fleet workloads: it reads
// the simulator time of the last step, as the daemons do.
type vclock struct{ ns atomic.Int64 }

func (c *vclock) set(t time.Time) { c.ns.Store(t.UnixNano()) }
func (c *vclock) now() time.Time  { return time.Unix(0, c.ns.Load()).UTC() }

// rig is one set-up control node: generator, engine and the handles the
// benchmark reads from outside the program.
type rig struct {
	w      workload
	sched  schedule
	gen    generator
	eng    *core.Engine
	reg    *telemetry.Registry
	sink   *sinkCapture
	clock  *vclock
	probes *probes
	names  []string
	now0   time.Time // virtual time of the set-up tick
	sadc   []string  // daemon addresses (fleet workloads)
	hlog   []string
	traced bool
	// bbIn and wbIn are the analysis stage's input ports, by node.
	bbIn, wbIn []*core.InputPort
}

// setup builds a control node for w: the fleet process (or in-process
// cluster), the engine with its model loaded, and one tick to warm the
// connections. It returns the rig after that first tick.
func setup(w workload, seed int64, m modelFile, dir string, traced bool) (*rig, error) {
	r := &rig{w: w, sched: scheduleFor(w, seed), reg: telemetry.NewRegistry(), sink: &sinkCapture{}, names: nodeNames(w.Nodes), traced: traced}
	env := modules.NewEnv()
	env.AlarmWriter = r.sink
	env.Metrics = r.reg
	env.Adaptive = modules.NewAdaptiveController(modules.AdaptiveConfig{Metrics: r.reg})
	var text string
	if w.Wire {
		f, err := startFleet(w, seed, m, dir, traced)
		if err != nil {
			return nil, err
		}
		r.gen = f
		r.sadc, r.hlog = f.ready.Sadc, f.ready.Hlog
		r.clock = &vclock{}
		env.Clock = r.clock.now
		text = pipelineConfig(w, m, r.sadc, r.hlog)
	} else {
		c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(w.Nodes, seed))
		if err != nil {
			return nil, err
		}
		g := newLocalGen(c, w, r.sched, m, traced)
		r.gen = g
		localEnv(env, c, g.provider)
		text = pipelineConfig(w, m, nil, nil)
	}
	cfg, err := config.ParseString(text)
	if err != nil {
		_ = r.gen.close()
		return nil, err
	}
	// The engine keeps cmd/asdf's defaults: serial wavefront, no
	// quarantine, skip degrade, telemetry on.
	r.eng, err = core.NewEngine(modules.NewRegistry(env), cfg,
		core.WithTelemetry(r.reg),
		core.WithParallelism(1),
		core.WithDegradeResolver(env.Adaptive.DegradePolicy),
		// Run failures are counted by the supervisor telemetry
		// (core.failures); a failing daemon must not flood the log.
		core.WithErrorHandler(func(string, error) {}))
	if err != nil {
		_ = r.gen.close()
		return nil, err
	}
	r.bbIn, r.wbIn = r.eng.InputPortsOf("bb"), r.eng.InputPortsOf("wb")
	if len(r.bbIn) != w.Nodes || len(r.wbIn) != w.Nodes {
		_ = r.gen.close()
		return nil, fmt.Errorf("analysis inputs: %d bb, %d wb for %d nodes", len(r.bbIn), len(r.wbIn), w.Nodes)
	}
	r.probes = newProbes(r)
	st, err := r.step(0, false)
	if err != nil {
		_ = r.gen.close()
		return nil, err
	}
	r.now0 = st.adv.Now
	return r, nil
}

func localEnv(env *modules.Env, c *hadoopsim.Cluster, wrap func(*hadoopsim.Node) procfs.Provider) {
	for _, n := range c.Slaves() {
		env.Procfs[n.Name] = n
		if wrap != nil {
			env.Procfs[n.Name] = wrap(n)
		}
		env.TTLogs[n.Name] = n.TaskTrackerLog()
		env.DNLogs[n.Name] = n.DataNodeLog()
	}
	env.Clock = c.Now
}

// stepTimes is one tick as the benchmark saw it.
type stepTimes struct {
	adv      advance
	wallNs   int64 // eng.Tick wall time
	ctlCPUNs int64 // control-process CPU inside the tick interval
	startNs  int64 // wall clock at tick start (unix ns)
	endNs    int64
	rt       runtimeDelta // traced runs only
}

// runtimeDelta is the control process's Go runtime activity inside one
// tick interval, read just before and after eng.Tick like its CPU time.
type runtimeDelta struct {
	allocs, allocBytes uint64
	gcCPUSec           float64
	heapLive           uint64 // at the end of the tick
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes", "/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime(s []metrics.Sample) {
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
}

// step advances the generator (untimed) and runs one engine tick (timed).
func (r *rig) step(tick int, spans bool) (stepTimes, error) {
	adv, err := r.gen.advance(tick, spans)
	if err != nil {
		return stepTimes{}, err
	}
	if r.clock != nil {
		r.clock.set(adv.Now)
	}
	r.sink.spans = spans
	var m0, m1 [4]metrics.Sample
	if r.traced {
		readRuntime(m0[:])
	}
	cpu0 := cpuNs()
	t0 := time.Now()
	if err := r.eng.Tick(adv.Now); err != nil {
		return stepTimes{}, err
	}
	t1 := time.Now()
	cpu1 := cpuNs()
	st := stepTimes{adv: adv, wallNs: int64(t1.Sub(t0)), ctlCPUNs: cpu1 - cpu0,
		startNs: t0.UnixNano(), endNs: t1.UnixNano()}
	if r.traced {
		readRuntime(m1[:])
		st.rt = runtimeDelta{
			allocs:     m1[0].Value.Uint64() - m0[0].Value.Uint64(),
			allocBytes: m1[1].Value.Uint64() - m0[1].Value.Uint64(),
			heapLive:   m1[2].Value.Uint64(),
			gcCPUSec:   m1[3].Value.Float64() - m0[3].Value.Float64(),
		}
	}
	return st, nil
}

// moduleGroups names the layers whose module runs the trace attributes,
// in pipeline order, with the instance ids of each.
func moduleGroups(nodes int) [][2]string {
	g := [][2]string{{"sadc", "sadc"}, {"hadoop_log", "hl_tt"}, {"knn", "knn"}}
	for i := 0; i < nodes; i++ {
		g = append(g, [2]string{"ibuffer", fmt.Sprintf("buf%d", i)})
	}
	return append(g, [][2]string{{"analysis_bb", "bb"}, {"analysis_wb", "wb"},
		{"print", "BlackBoxAlarm"}, {"print", "TaskTrackerAlarm"}}...)
}

var groupNames = []string{"sadc", "hadoop_log", "knn", "ibuffer", "analysis_bb", "analysis_wb", "print"}

// probes are handles on the telemetry the program already exports, looked
// up by name the way a scrape would see them.
type probes struct {
	runSec     [][]*telemetry.Histogram // by groupNames index
	sadcBytes  []*telemetry.Counter     // sent + received, per sadc daemon
	hlogBytes  []*telemetry.Counter
	calls      []*telemetry.Counter
	fails      []*telemetry.Counter
	reconnects []*telemetry.Counter
	breakers   []*telemetry.Gauge
	partial    *telemetry.Counter
	dropped    *telemetry.Counter
	ibufDrop   []*telemetry.Counter
	gapFills   []*telemetry.Counter
	failures   []*telemetry.Counter
}

func newProbes(r *rig) *probes {
	reg := r.reg
	p := &probes{runSec: make([][]*telemetry.Histogram, len(groupNames))}
	gi := make(map[string]int)
	for i, g := range groupNames {
		gi[g] = i
	}
	for _, g := range moduleGroups(r.w.Nodes) {
		il := telemetry.L("instance", g[1])
		p.runSec[gi[g[0]]] = append(p.runSec[gi[g[0]]], reg.Histogram("asdf_module_run_seconds", "", nil, il))
		p.gapFills = append(p.gapFills, reg.Counter("asdf_supervisor_gap_fills_total", "", il))
		for _, k := range []string{"error", "panic", "timeout"} {
			p.failures = append(p.failures, reg.Counter("asdf_supervisor_failures_total", "", il, telemetry.L("kind", k)))
		}
		if g[0] == "ibuffer" {
			p.ibufDrop = append(p.ibufDrop, reg.Counter("asdf_ibuffer_dropped_total", "", il))
		}
	}
	rpcAddr := func(addr string, bytes *[]*telemetry.Counter) {
		al := telemetry.L("addr", addr)
		*bytes = append(*bytes, reg.Counter("asdf_rpc_wire_bytes_sent_total", "", al),
			reg.Counter("asdf_rpc_wire_bytes_received_total", "", al))
		p.calls = append(p.calls, reg.Counter("asdf_rpc_calls_total", "", al))
		p.fails = append(p.fails, reg.Counter("asdf_rpc_transport_failures_total", "", al))
		p.reconnects = append(p.reconnects, reg.Counter("asdf_rpc_reconnects_total", "", al))
		p.breakers = append(p.breakers, reg.Gauge("asdf_rpc_breaker_state", "", al))
	}
	for _, a := range r.sadc {
		rpcAddr(a, &p.sadcBytes)
	}
	for _, a := range r.hlog {
		rpcAddr(a, &p.hlogBytes)
	}
	il := telemetry.L("instance", "hl_tt")
	p.partial = reg.Counter("asdf_sync_partial_timestamps_total", "", il)
	p.dropped = reg.Counter("asdf_sync_dropped_timestamps_total", "", il)
	return p
}

// counters is one reading of every probe, summed per layer.
type counters struct {
	runSec     [7]float64 // by groupNames index
	sadcBytes  uint64
	hlogBytes  uint64
	calls      uint64
	fails      uint64
	reconnects uint64
	open       int // breakers not closed
	partial    uint64
	dropped    uint64
	ibufDrop   uint64
	gapFills   uint64
	failures   uint64
}

func sumC(cs []*telemetry.Counter) (n uint64) {
	for _, c := range cs {
		n += c.Value()
	}
	return n
}

func (r *rig) read() counters {
	p := r.probes
	var c counters
	for g, hs := range p.runSec {
		for _, h := range hs {
			c.runSec[g] += h.Sum()
		}
	}
	c.sadcBytes, c.hlogBytes = sumC(p.sadcBytes), sumC(p.hlogBytes)
	c.calls, c.fails, c.reconnects = sumC(p.calls), sumC(p.fails), sumC(p.reconnects)
	for _, b := range p.breakers {
		if b.Value() != 0 {
			c.open++
		}
	}
	c.partial, c.dropped = p.partial.Value(), p.dropped.Value()
	c.ibufDrop, c.gapFills, c.failures = sumC(p.ibufDrop), sumC(p.gapFills), sumC(p.failures)
	return c
}

// rpcCallHist scrapes the summed asdf_rpc_call_seconds buckets (upper
// bound -> cumulative count), the way an operator's /metrics scrape would.
func (r *rig) rpcCallHist() (map[float64]float64, error) {
	var b strings.Builder
	if _, err := r.reg.WriteTo(&b); err != nil {
		return nil, err
	}
	series, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		return nil, err
	}
	h := make(map[float64]float64)
	for k, v := range series {
		if !strings.HasPrefix(k, "asdf_rpc_call_seconds_bucket{") {
			continue
		}
		i := strings.Index(k, `le="`)
		if i < 0 {
			continue
		}
		le := k[i+4 : i+4+strings.IndexByte(k[i+4:], '"')]
		var bound float64
		if le == "+Inf" {
			bound = 1e300
		} else if _, err := fmt.Sscan(le, &bound); err != nil {
			continue
		}
		h[bound] += v
	}
	return h, nil
}

// histQuantile interpolates quantile q (0..1) of the difference of two
// cumulative bucket readings, in seconds.
func histQuantile(before, after map[float64]float64, q float64) float64 {
	bounds := make([]float64, 0, len(after))
	for b := range after {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := after[bounds[len(bounds)-1]] - before[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	target := q * total
	prevBound, prevCount := 0.0, 0.0
	for _, b := range bounds {
		c := after[b] - before[b]
		if c >= target {
			if b >= 1e300 {
				return prevBound
			}
			if c == prevCount {
				return b
			}
			return prevBound + (b-prevBound)*(target-prevCount)/(c-prevCount)
		}
		prevBound, prevCount = b, c
	}
	return prevBound
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
