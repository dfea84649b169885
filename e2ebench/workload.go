package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"time"

	"github.com/asdf-project/asdf/internal/analysis"
	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/sadc"
)

// Analysis parameters shared by every workload: the paper's operating point
// (window 60, black-box threshold 55, white-box k = 3).
const (
	window      = 60
	bbThreshold = 55
	wbK         = 3
	ibufSize    = 10
	// warmTicks is the untimed prefix after set-up: the analysis windows
	// fill, then the workload's fault is injected at tick warmTicks and
	// timing starts.
	warmTicks = 64
	// minTimedTicks keeps at least ten ticks beyond the p95.
	minTimedTicks = 240
)

// workload is one input shape the benchmark drives through the full
// two-pipeline configuration.
type workload struct {
	Name  string
	Why   string
	Nodes int
	// Wire runs the simulator and one sadc_rpcd + hadoop_log_rpcd pair per
	// node in a separate fleet process, reached over loopback with
	// wire = columnar. Without it collection is mode = local, in process.
	Wire bool
	// Slide is the analysis window slide (verdicts every Slide ticks).
	Slide int
	// Fault is injected on FaultNode at tick warmTicks.
	Fault hadoopsim.FaultKind
	// Deadrange adds the seeded blackhole and refuse outages after the
	// steady prefix.
	Deadrange bool
}

var workloads = []workload{
	{
		Name:  "fleet-deadrange",
		Why:   "512 nodes over columnar loopback daemons in a fleet process, CPU hog; 240 steady ticks checked row by row, then a blackholed 1/16 range and a refused range",
		Nodes: 512, Wire: true, Slide: 15, Fault: hadoopsim.FaultCPUHog, Deadrange: true,
	},
	{
		Name:  "analysis-local",
		Why:   "512 nodes collected in process with slide 1 and a HADOOP-1152 hang; analysis and sink dominate, the wire is bypassed",
		Nodes: 512, Wire: false, Slide: 1, Fault: hadoopsim.FaultHang1152,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Resilience settings of the dead-range workload. Breaker timing runs on
// the virtual clock, so cooldowns are in ticks; the call timeout is real
// time, since a blackholed daemon costs the control node real waiting.
const (
	deadCallTimeout      = 100 * time.Millisecond
	deadBreakerThreshold = 2
	deadBreakerCooldown  = 5 // virtual seconds
	deadSyncDeadline     = 3 // virtual seconds
	// deadResumeBound is how many ticks after revival every revived node's
	// samples must reach the analysis stage again: one breaker cooldown,
	// one reconnect, and the warm-up record of a fresh sadc stream.
	deadResumeBound = deadBreakerCooldown + 4
)

// outage is one scheduled daemon fault over a contiguous node range.
type outage struct {
	Kind       string // "blackhole" (accepts, never replies) or "refuse"
	First      int    // first node index
	Count      int    // nodes in the range
	Start, End int    // ticks [Start, End)
}

// schedule is everything a workload does to the fleet, keyed to tick
// index. Control and fleet processes derive it from the same seed.
type schedule struct {
	FaultNode int
	FaultTick int
	Outages   []outage
}

func (s schedule) everDown(node int) bool {
	for _, o := range s.Outages {
		if node >= o.First && node < o.First+o.Count {
			return true
		}
	}
	return false
}

// lastTick is the final tick the schedule needs, including recovery.
func (s schedule) lastTick() int {
	last := s.FaultTick
	for _, o := range s.Outages {
		if end := o.End + 3*deadResumeBound; end > last {
			last = end
		}
	}
	return last
}

// steadyTicks is how many ticks from tick 0 run before the first outage:
// the oracle's reference covers these, since an outage changes what the
// measured run sees from then on.
func (s schedule) steadyTicks() int {
	if len(s.Outages) == 0 {
		return math.MaxInt
	}
	return s.Outages[0].Start
}

func scheduleFor(w workload, seed int64) schedule {
	rng := rand.New(rand.NewSource(seed*7919 + int64(w.Nodes)))
	s := schedule{FaultNode: rng.Intn(w.Nodes), FaultTick: warmTicks}
	if !w.Deadrange {
		return s
	}
	black := w.Nodes / 16
	refuse := max(w.Nodes/64, 1)
	// Two disjoint contiguous ranges, neither holding the faulty node, so
	// the fault is found as without outages. Both start after the
	// detection prefix, which stays steady.
	for {
		b0 := rng.Intn(w.Nodes - black - refuse + 1)
		r0 := b0 + black + rng.Intn(w.Nodes-b0-black-refuse+1)
		if (s.FaultNode >= b0 && s.FaultNode < b0+black) || (s.FaultNode >= r0 && s.FaultNode < r0+refuse) {
			continue
		}
		s.Outages = []outage{
			{Kind: "blackhole", First: b0, Count: black, Start: detectTicks, End: detectTicks + 30},
			{Kind: "refuse", First: r0, Count: refuse, Start: detectTicks + 50, End: detectTicks + 60},
		}
		return s
	}
}

func nodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("slave%02d", i+1)
	}
	return names
}

// pipelineConfig renders the paper's two-pipeline configuration over the
// fleet: sadc -> batched knn -> ibuffer -> analysis_bb -> print, and
// hadoop_log -> analysis_wb -> print. With addrs nil collection is local.
func pipelineConfig(w workload, m modelFile, sadcAddrs, hlogAddrs []string) string {
	names := nodeNames(w.Nodes)
	var b strings.Builder
	rpcParams := func(addrs []string) {
		if addrs == nil {
			return
		}
		fmt.Fprintf(&b, "mode = rpc\naddrs = %s\nwire = columnar\n", strings.Join(addrs, ","))
		if w.Deadrange {
			fmt.Fprintf(&b, "call_timeout = %s\nbreaker_threshold = %d\nbreaker_cooldown = %d\n",
				deadCallTimeout, deadBreakerThreshold, deadBreakerCooldown)
		}
	}
	fmt.Fprintf(&b, "[sadc]\nid = sadc\nnodes = %s\nperiod = 1\n", strings.Join(names, ","))
	rpcParams(sadcAddrs)
	fmt.Fprintf(&b, "\n[knn]\nid = knn\nmodel_file = %s\nnodes = %d\n", m.path, w.Nodes)
	for i, n := range names {
		fmt.Fprintf(&b, "input[in%d] = sadc.%s\n", i, n)
	}
	for i := range names {
		fmt.Fprintf(&b, "\n[ibuffer]\nid = buf%d\nsize = %d\ninput[input] = knn.output%d\n", i, ibufSize, i)
	}
	fmt.Fprintf(&b, "\n[analysis_bb]\nid = bb\nthreshold = %d\nwindow = %d\nslide = %d\nstates = %d\n",
		bbThreshold, window, w.Slide, m.states)
	for i := range names {
		fmt.Fprintf(&b, "input[l%d] = buf%d.output0\n", i, i)
	}
	b.WriteString("\n[print]\nid = BlackBoxAlarm\nlabel = BB\nonly_nonzero = false\ninput[a] = @bb\n")

	fmt.Fprintf(&b, "\n[hadoop_log]\nid = hl_tt\nkind = tasktracker\nnodes = %s\nperiod = 1\n", strings.Join(names, ","))
	rpcParams(hlogAddrs)
	if w.Deadrange && hlogAddrs != nil {
		fmt.Fprintf(&b, "sync_deadline = %d\nsync_quorum = %d\n", deadSyncDeadline, w.Nodes/2)
	}
	fmt.Fprintf(&b, "\n[analysis_wb]\nid = wb\nk = %d\nwindow = %d\nslide = %d\n", wbK, window, w.Slide)
	for i, n := range names {
		fmt.Fprintf(&b, "input[s%d] = hl_tt.%s\n", i, n)
	}
	b.WriteString("\n[print]\nid = TaskTrackerAlarm\nlabel = WB\nonly_nonzero = false\ninput[a] = @wb\n")
	return b.String()
}

// trainModel is ASDF's offline step (§4.9): k-means workload states from a
// fault-free run of a small cluster with the workload's seed. It runs
// before the set-up clock starts.
func trainModel(dir string, seed int64) (modelFile, error) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(16, seed+1000))
	if err != nil {
		return modelFile{}, err
	}
	collectors := make([]*sadc.Collector, len(c.Slaves()))
	for i, n := range c.Slaves() {
		collectors[i] = sadc.NewCollector(n)
	}
	var points [][]float64
	for s := 0; s < 240; s++ {
		c.Tick()
		for _, col := range collectors {
			rec, err := col.Collect()
			if err != nil {
				return modelFile{}, err
			}
			if !rec.Warmup && s >= 30 {
				points = append(points, rec.Node)
			}
		}
	}
	model, err := analysis.TrainModel(points, 8, seed)
	if err != nil {
		return modelFile{}, err
	}
	path := filepath.Join(dir, "model.json")
	if err := model.Save(path); err != nil {
		return modelFile{}, err
	}
	return modelFile{path: path, states: model.NumStates()}, nil
}

// workDir makes the run's working directory inside the checkout.
func workDir() (string, error) {
	root := os.Getenv("CARGO_TARGET_DIR")
	if root == "" {
		root = ".bench_build"
	}
	dir := filepath.Join(root, "e2ebench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

// Seeds: the default a change is tuned against, and a held-out seed the
// claim is re-checked on. Every workload runs clean on both.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// resilience is the collection plane's failure handling as the modules
// resolve it. The call and breaker settings are empty without a wire.
type resilience struct {
	CallTimeout      string `json:"call_timeout,omitempty"`
	ReconnectBackoff string `json:"reconnect_backoff,omitempty"`
	BreakerThreshold int    `json:"breaker_threshold,omitempty"`
	BreakerCooldown  string `json:"breaker_cooldown,omitempty"`
	SyncDeadline     string `json:"sync_deadline"`
	SyncQuorum       int    `json:"sync_quorum"`
}

// envelopeEntry is the resources one workload runs with, so a later
// speed-up can be taken at equal resources. Fanouts, block size, shards,
// parallelism and resilience are read from a built engine, as the
// program's defaults resolve them.
type envelopeEntry struct {
	Name              string     `json:"name"`
	Why               string     `json:"why"`
	Nproc             int        `json:"nproc"`
	GOMAXPROCS        string     `json:"gomaxprocs"`
	Processes         int        `json:"processes"`
	Nodes             int        `json:"nodes"`
	DaemonConnections int        `json:"daemon_connections"`
	Wire              string     `json:"wire"`
	SadcFanout        int        `json:"sadc_fetch_fanout"`
	HadoopLogFanout   int        `json:"hadoop_log_fetch_fanout"`
	Shards            int        `json:"shards"`
	KnnFanout         int        `json:"knn_fanout"`
	KnnBlock          int        `json:"knn_block"`
	EngineParallelism int        `json:"engine_parallelism"`
	Window            int        `json:"window"`
	Slide             int        `json:"slide"`
	Fault             string     `json:"fault"`
	Resilience        resilience `json:"resilience"`
}

type envelopeFile struct {
	DefaultSeed int             `json:"default_seed"`
	HeldOutSeed int             `json:"held_out_seed"`
	Workloads   []envelopeEntry `json:"workloads"`
	// Detection is each steady workload's outcome over the first
	// detectTicks ticks at both seeds; a run of one of these must stay
	// within detectionSlack of it.
	Detection []detectionRecord `json:"detection"`
}

type detectionRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	detection
}

//go:embed envelope.json
var envelopeJSON []byte

// committed is envelope.json as built into the command.
var committed = func() envelopeFile {
	var f envelopeFile
	if err := json.Unmarshal(envelopeJSON, &f); err != nil {
		panic("envelope.json: " + err.Error())
	}
	return f
}()

// benchNproc is the CPU count the committed bounds were set on; every run
// prints the CPU count it actually had.
const benchNproc = 2

// envelope describes every workload, reading the resolved settings from an
// engine built the way setup builds it (rpc clients dial lazily, so no
// fleet is needed).
func envelope(m modelFile) (envelopeFile, error) {
	f := envelopeFile{DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed, Detection: committed.Detection}
	for _, w := range workloads {
		e := envelopeEntry{
			Name: w.Name, Why: w.Why, Nproc: benchNproc, GOMAXPROCS: "nproc (unset)", Processes: 1,
			Nodes: w.Nodes, Wire: "none (mode = local)", Window: window, Slide: w.Slide, Fault: w.Fault.String(),
		}
		env := modules.NewEnv()
		var sadcAddrs, hlogAddrs []string
		if w.Wire {
			e.Processes = 2
			e.DaemonConnections = 2 * w.Nodes
			e.Wire = "columnar over loopback TCP"
			for i := 0; i < w.Nodes; i++ {
				sadcAddrs = append(sadcAddrs, fmt.Sprintf("127.0.0.1:%d", fleetPortFirst+2*i))
				hlogAddrs = append(hlogAddrs, fmt.Sprintf("127.0.0.1:%d", fleetPortFirst+2*i+1))
			}
		} else {
			c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(w.Nodes, defaultSeed))
			if err != nil {
				return f, err
			}
			localEnv(env, c, nil)
		}
		cfg, err := config.ParseString(pipelineConfig(w, m, sadcAddrs, hlogAddrs))
		if err != nil {
			return f, err
		}
		eng, err := core.NewEngine(modules.NewRegistry(env), cfg, core.WithParallelism(1))
		if err != nil {
			return f, err
		}
		if err := e.resolve(eng, w.Wire); err != nil {
			return f, fmt.Errorf("%s: %w", w.Name, err)
		}
		f.Workloads = append(f.Workloads, e)
	}
	return f, nil
}

// resolve reads the settings the modules resolved from their defaults.
// They are unexported inside the modules, so they are read by reflection:
// if a module renames one, the envelope self-test fails and names it.
func (e *envelopeEntry) resolve(eng *core.Engine, wire bool) error {
	mod := func(id string) (reflect.Value, error) {
		m, ok := eng.ModuleOf(id)
		if !ok {
			return reflect.Value{}, fmt.Errorf("no module %q", id)
		}
		return reflect.ValueOf(m), nil
	}
	var err error
	get := func(id string, path ...string) reflect.Value {
		var v reflect.Value
		if err == nil {
			if v, err = mod(id); err == nil {
				v, err = field(v, path...)
			}
		}
		return v
	}
	read := func(id string, path ...string) int64 {
		if v := get(id, path...); err == nil {
			return v.Int()
		}
		return 0
	}
	e.EngineParallelism = eng.Parallelism()
	// A single-shard collector sweeps through its sharder too, with the
	// resolved fanout as shard 0's width.
	e.SadcFanout = int(read("sadc", "sharder", "widths", "0"))
	e.HadoopLogFanout = int(read("hl_tt", "sharder", "widths", "0"))
	if v := get("sadc", "sharder", "ranges"); err == nil {
		e.Shards = v.Len()
	}
	e.KnnFanout = int(read("knn", "multi", "bc", "pool", "workers"))
	e.KnnBlock = int(read("knn", "multi", "bc", "pool", "block"))
	e.Resilience.SyncDeadline = time.Duration(read("hl_tt", "syncDeadline")).String()
	e.Resilience.SyncQuorum = int(read("hl_tt", "syncQuorum"))
	if wire {
		e.Resilience.CallTimeout = time.Duration(read("sadc", "clients", "0", "opt", "CallTimeout")).String()
		e.Resilience.ReconnectBackoff = time.Duration(read("sadc", "clients", "0", "opt", "ReconnectBackoff")).String()
		e.Resilience.BreakerThreshold = int(read("sadc", "clients", "0", "opt", "BreakerThreshold"))
		e.Resilience.BreakerCooldown = time.Duration(read("sadc", "clients", "0", "opt", "BreakerCooldown")).String()
	}
	return err
}

// field follows a path of struct field names (or slice indexes) from v,
// through pointers and interfaces.
func field(v reflect.Value, path ...string) (reflect.Value, error) {
	for _, name := range path {
		for v.Kind() == reflect.Pointer || v.Kind() == reflect.Interface {
			if v.IsNil() {
				return v, fmt.Errorf("nil before field %q", name)
			}
			v = v.Elem()
		}
		var next reflect.Value
		switch v.Kind() {
		case reflect.Struct:
			next = v.FieldByName(name)
		case reflect.Slice:
			if i, err := strconv.Atoi(name); err == nil && i < v.Len() {
				next = v.Index(i)
			}
		}
		if !next.IsValid() {
			return v, fmt.Errorf("no field %q in %s", name, v.Type())
		}
		v = next
	}
	return v, nil
}
