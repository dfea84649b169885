// Command e2ebench is the end-to-end fleet benchmark: it drives the paper's
// two-pipeline configuration through core.Engine.Tick in a closed loop, one
// fleet tick at a time, and reports tick latency, monitoring CPU, wire
// cost and detection outcome, plus a per-layer attribution of each tick.
//
// Usage:
//
//	e2ebench --workload fleet-deadrange --seed 1 --seconds 50 --trace 0
//
// In the fleet workloads the simulator and one sadc_rpcd + hadoop_log_rpcd
// server per node run in a separate fleet process (this binary re-executed
// with E2EBENCH_FLEET=1), so the measured process holds the control node
// alone. Every number is read from outside the program: spans around the
// benchmark's own calls, the telemetry registry passed to the engine,
// getrusage and runtime/metrics. The last stdout line is one JSON object
// with correct/attempted/failed/metrics; the exit code is non-zero when
// any node-sample is lost or any verdict row differs from the reference.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

func main() {
	if os.Getenv(fleetEnv) == "1" {
		os.Exit(fleetMain(os.Args[1:], os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fleets records every fleet process this process started: the watchdog
// kills them, and the self-tests check that none outlives its run.
var fleets struct {
	sync.Mutex
	all []*fleetProc
}

func trackFleet(f *fleetProc) {
	fleets.Lock()
	fleets.all = append(fleets.all, f)
	fleets.Unlock()
}

// killFleets signals every fleet process started; the kernel also kills
// them when this process dies (Pdeathsig).
func killFleets() {
	fleets.Lock()
	defer fleets.Unlock()
	for _, f := range fleets.all {
		_ = f.cmd.Process.Kill() // an already-reaped process reports an error; nothing to do
	}
}

// options are the settings of one run. Only the first four are
// command-line flags; the self-tests set the rest to shrink or break a run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int

	setups     int    // set-ups per run; setup_s is their median
	nodes      int    // 0 = the workload's node count
	minTicks   int    // minimum timed ticks
	traceOut   string // "" = under the run's build directory
	corruptRow int    // >= 0: flip a byte of this sink row
}

func defaultOptions() options {
	return options{seed: defaultSeed, seconds: 50, setups: 11, minTicks: minTimedTicks, corruptRow: -1}
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	o := defaultOptions()
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: fleet-deadrange or analysis-local")
	fs.Int64Var(&o.seed, "seed", o.seed, "workload seed (simulator, fault node, outage ranges, model)")
	fs.Float64Var(&o.seconds, "seconds", o.seconds, "wall seconds of timed ticks (at least 240 ticks are run)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-tick spans and counter deltas, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 0 {
		return o, fmt.Errorf("--seconds must be non-negative")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute runs one measurement and prints its result; the exit code is 1
// when any operation failed.
func execute(o options, stdout, stderr io.Writer) int {
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q\n", o.workload)
		return 2
	}
	if o.nodes > 0 {
		w.Nodes = o.nodes
	}
	// A run must end within its budget whatever hangs: kill the fleet and
	// fail rather than overrun.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(stderr, "e2ebench: watchdog: run exceeded 170s")
		killFleets()
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	res.print(stdout, w, o)
	if !res.correct {
		return 1
	}
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]metric
	notes     []string
	detected  detection // over the first detectTicks ticks
}

func (r *result) set(name string, v float64, unit string) {
	if r.values == nil {
		r.values = map[string]metric{}
	}
	r.values[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(out io.Writer, w workload, o options) {
	fmt.Fprintf(out, "workload %s seed %d nodes %d wire=%v GOMAXPROCS=%d nproc=%d\n",
		w.Name, o.seed, w.Nodes, w.Wire, runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, r.values[n].Value, r.values[n].Unit)
	}
	keys := endToEndMetrics
	if o.trace == 1 {
		keys = perLayerMetrics
	}
	m := make(map[string]metric, len(keys))
	for _, k := range keys {
		m[k] = r.values[k]
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
	fmt.Fprintf(out, "%s\n", line)
}
