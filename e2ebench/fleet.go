package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
)

// fleetEnv marks a child started as the fleet process: the simulator plus
// one sadc_rpcd and one hadoop_log_rpcd server per node. The control
// process talks to it over stdin/stdout, one line per request.
const fleetEnv = "E2EBENCH_FLEET"

// blackholeDelay outlasts any run: a blackholed daemon accepts and reads
// calls but answers none of them before the process exits.
const blackholeDelay = 10 * time.Minute

// Daemon ports: a block below the usual ephemeral range (32768-60999).
const (
	fleetPortFirst = 20000
	fleetPortLimit = 32000
)

// fleetGCEvery is how many bytes the fleet process allocates between the
// collections it runs in the untimed simulator step.
const fleetGCEvery = 128 << 20

// advance is what one simulator step reports. CPU and counter fields are
// cumulative; the control process takes differences between steps, so the
// fleet's CPU between two steps is what its daemons spent serving a tick.
type advance struct {
	Now       time.Time
	CPUBefore int64 // generator CPU (ns) before this step
	CPUAfter  int64 // generator CPU (ns) after this step
	AdvNs     int64 // wall time of the simulator step
	SnapNs    int64 // cumulative time daemons spent in provider Snapshot
	LogLines  int64 // cumulative TaskTracker log lines written
	// Heap bytes the generator process allocated: before this step (the
	// daemons' allocations up to here, cumulative) and inside the
	// simulator step alone. Both 0 in process, where the control
	// process's own readings cover the daemons' share.
	AllocBefore int64
	SimAlloc    int64
	AllocAfter  int64
}

// generator advances the simulated cluster one virtual second per tick.
type generator interface {
	advance(tick int, spans bool) (advance, error)
	// final replays the last tick through the reference and reports the
	// generator's cumulative CPU, Snapshot time and allocations after the
	// last tick (CPU and allocations are 0 in process).
	final() (finalReport, error)
	close() error
}

type finalReport struct {
	cpu, snapNs, alloc int64
	// ref is the reference's sink log over every tick, nil without one.
	ref *sinkLog
}

// applyTick performs the schedule's events for tick and steps the cluster.
// Both the fleet process and the in-process generator use it.
func applyTick(c *hadoopsim.Cluster, w workload, s schedule, tick int) error {
	if tick == s.FaultTick {
		if err := c.InjectFault(s.FaultNode, w.Fault); err != nil {
			return err
		}
	}
	c.Tick()
	return nil
}

// modelFile is the trained black-box model both engines load.
type modelFile struct {
	path   string
	states int
}

// refRunner is the oracle's reference: an in-process, mode = local, serial
// engine over the same simulated cluster as the measured run. Before each
// step the generator ticks it on the state the measured engine just read,
// outside the timed interval. A second cluster built from the same seed
// would not do: hadoopsim is not bit-reproducible (it sums map values in
// iteration order), and the drift flips a verdict row now and then. The
// engine is built at the first warm-up tick, so set-up time does not
// include it. It covers the schedule's steady ticks only.
type refRunner struct {
	w     workload
	c     *hadoopsim.Cluster
	fault int
	ticks int // the reference covers ticks [0, ticks)
	m     modelFile
	eng   *core.Engine
	sink  *sinkCapture
	log   *sinkLog // nil until the engine is built
}

func (r *refRunner) build() error {
	r.sink = &sinkCapture{}
	env := modules.NewEnv()
	env.AlarmWriter = r.sink
	localEnv(env, r.c, nil)
	cfg, err := config.ParseString(pipelineConfig(r.w, r.m, nil, nil))
	if err != nil {
		return err
	}
	if r.eng, err = core.NewEngine(modules.NewRegistry(env), cfg, core.WithParallelism(1)); err != nil {
		return err
	}
	r.log = newSinkLog(nodeNames(r.w.Nodes), r.fault)
	return nil
}

// replay ticks the reference on the state of the tick before tick.
func (r *refRunner) replay(tick int) error {
	if tick == 0 || tick > r.ticks {
		return nil
	}
	if r.eng == nil {
		if err := r.build(); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	now := r.c.Now()
	if err := r.eng.Tick(now); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.log.consume(r.sink, now)
	return nil
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

func logLines(c *hadoopsim.Cluster) int64 {
	var n int64
	for _, s := range c.Slaves() {
		_, end := s.TaskTrackerLog().ReadFrom(math.MaxUint64)
		n += int64(end)
	}
	return n
}

// localGen steps an in-process cluster (mode = local collection).
type localGen struct {
	c       *hadoopsim.Cluster
	w       workload
	s       schedule
	traced  bool
	ref     refRunner
	last    int
	snapNs  atomic.Int64
	spansOn atomic.Bool
}

func newLocalGen(c *hadoopsim.Cluster, w workload, s schedule, m modelFile, traced bool) *localGen {
	return &localGen{c: c, w: w, s: s, traced: traced, ref: refRunner{w: w, c: c, fault: s.FaultNode, ticks: s.steadyTicks(), m: m}}
}

// provider wraps node i's /proc provider so the collectors' Snapshot calls
// are timed on span ticks, as the fleet's daemons are.
func (g *localGen) provider(n *hadoopsim.Node) procfs.Provider {
	return timedProvider{n: n, ns: &g.snapNs, enable: &g.spansOn}
}

func (g *localGen) advance(tick int, spans bool) (advance, error) {
	if err := g.ref.replay(tick); err != nil {
		return advance{}, err
	}
	g.spansOn.Store(spans)
	a0 := heapAllocs()
	t0 := time.Now()
	if err := applyTick(g.c, g.w, g.s, tick); err != nil {
		return advance{}, err
	}
	a := advance{Now: g.c.Now(), AdvNs: int64(time.Since(t0)), SnapNs: g.snapNs.Load(), SimAlloc: heapAllocs() - a0}
	if g.traced {
		a.LogLines = logLines(g.c)
	}
	g.last = tick
	return a, nil
}

func (g *localGen) final() (finalReport, error) {
	err := g.ref.replay(g.last + 1)
	return finalReport{snapNs: g.snapNs.Load(), ref: g.ref.log}, err
}

func (g *localGen) close() error { return nil }

// timedProvider is a node's /proc provider with the daemon's Snapshot
// calls timed while spans are on. In the fleet, mu keeps a call the
// control node already gave up on from reading the cluster while it steps.
type timedProvider struct {
	n      *hadoopsim.Node
	ns     *atomic.Int64
	enable *atomic.Bool
	mu     *sync.RWMutex // nil in process, where nothing overlaps a step
}

func (p timedProvider) Snapshot() (*procfs.Snapshot, error) {
	if p.mu != nil {
		p.mu.RLock()
		defer p.mu.RUnlock()
	}
	if !p.enable.Load() {
		return p.n.Snapshot()
	}
	t0 := time.Now()
	s, err := p.n.Snapshot()
	p.ns.Add(int64(time.Since(t0)))
	return s, err
}

type fleetReady struct {
	Sadc []string `json:"sadc"`
	Hlog []string `json:"hlog"`
}

// fleetMain is the fleet process: it builds the cluster and the daemons,
// announces their addresses, then serves step requests until stdin closes.
func fleetMain(args []string, in io.Reader, out io.Writer) int {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	nodes := fs.Int("nodes", 0, "node count")
	traced := fs.Bool("trace", false, "count log lines per step")
	var m modelFile
	fs.StringVar(&m.path, "model", "", "black-box model file of the reference")
	fs.IntVar(&m.states, "states", 0, "states of the model")
	refOut := fs.String("ref", "", "file the reference's sink log is written to at the final request")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "fleet: unknown workload %q\n", *name)
		return 2
	}
	w.Nodes = *nodes
	sched := scheduleFor(w, *seed)
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(w.Nodes, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
		return 1
	}
	ref := refRunner{w: w, c: c, fault: sched.FaultNode, ticks: sched.steadyTicks(), m: m}
	last := 0
	// The simulator allocates heavily while it steps. Its collections run
	// inside the untimed step instead of beside the daemons during a tick.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30) // a backstop, never reached in a healthy run
	var mem runtime.MemStats
	lastGC := uint64(0)
	var snapNs atomic.Int64
	var spansOn atomic.Bool
	var simMu sync.RWMutex
	now := func() time.Time {
		simMu.RLock()
		defer simMu.RUnlock()
		return c.Now()
	}
	sadcSrv := make([]*rpc.Server, w.Nodes)
	hlogSrv := make([]*rpc.Server, w.Nodes)
	defer func() {
		for i := range sadcSrv {
			if sadcSrv[i] != nil {
				_ = sadcSrv[i].Close()
			}
			if hlogSrv[i] != nil {
				_ = hlogSrv[i].Close()
			}
		}
	}()
	// Daemons listen on fixed ports below the ephemeral range rather than
	// on port 0: a run leaves thousands of sockets in TIME_WAIT, and the
	// kernel's search for a free ephemeral port slows down as they pile
	// up, which would charge earlier runs' residue to set-up time. A port
	// still held by a live socket is skipped.
	port := fleetPortFirst
	listen := func(s *rpc.Server) (string, error) {
		for ; port < fleetPortLimit; port++ {
			if a, err := s.Listen(fmt.Sprintf("127.0.0.1:%d", port)); err == nil {
				port++
				return a.String(), nil
			}
		}
		return "", fmt.Errorf("no free port in [%d, %d)", fleetPortFirst, fleetPortLimit)
	}
	var ready fleetReady
	for i, n := range c.Slaves() {
		sadcSrv[i] = rpc.NewServer(modules.ServiceSadc)
		modules.RegisterSadcServer(sadcSrv[i], timedProvider{n: n, ns: &snapNs, enable: &spansOn, mu: &simMu})
		a, err := listen(sadcSrv[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		ready.Sadc = append(ready.Sadc, a)
		hlogSrv[i] = rpc.NewServer(modules.ServiceHadoopLog)
		modules.RegisterHadoopLogServer(hlogSrv[i], n.TaskTrackerLog(), n.DataNodeLog(), now)
		if a, err = listen(hlogSrv[i]); err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			return 1
		}
		ready.Hlog = append(ready.Hlog, a)
	}
	bw := bufio.NewWriter(out)
	msg, _ := json.Marshal(ready)
	fmt.Fprintf(bw, "ready %s\n", msg)
	if err := bw.Flush(); err != nil {
		return 1
	}

	setFaults := func(o outage, f rpc.Faults, drop bool) {
		for i := o.First; i < o.First+o.Count; i++ {
			for _, s := range []*rpc.Server{sadcSrv[i], hlogSrv[i]} {
				s.SetFaults(f)
				if drop {
					s.DropConns()
				}
			}
		}
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "adv":
			if len(f) != 3 {
				fmt.Fprintf(os.Stderr, "fleet: bad request %q\n", sc.Text())
				return 2
			}
			tick, _ := strconv.Atoi(f[1])
			cpu0, alloc0 := cpuNs(), heapAllocs()
			// The reference reads the state the daemons served last tick,
			// under the lock the daemons' reads take.
			simMu.Lock()
			err := ref.replay(tick)
			simMu.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
				return 1
			}
			for _, o := range sched.Outages {
				switch {
				case tick == o.Start && o.Kind == "blackhole":
					setFaults(o, rpc.Faults{Delay: blackholeDelay}, false)
				case tick == o.Start:
					setFaults(o, rpc.Faults{RefuseNew: true}, true)
				case tick == o.End:
					// Sever the connections a blackhole left hanging.
					setFaults(o, rpc.Faults{}, true)
				}
			}
			spansOn.Store(f[2] == "1")
			t0, a0 := time.Now(), heapAllocs()
			simMu.Lock()
			err = applyTick(c, w, sched, tick)
			simMu.Unlock()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
				return 1
			}
			simAlloc := heapAllocs() - a0
			runtime.ReadMemStats(&mem)
			if mem.TotalAlloc-lastGC > fleetGCEvery {
				runtime.GC()
				lastGC = mem.TotalAlloc
			}
			adv := time.Since(t0)
			var lines int64
			if *traced {
				lines = logLines(c)
			}
			last = tick
			fmt.Fprintf(bw, "ok %d %d %d %d %d %d %d %d %d\n", now().UnixNano(), cpu0, cpuNs(), int64(adv), snapNs.Load(), lines,
				alloc0, simAlloc, heapAllocs())
		case "final":
			cpu, alloc := cpuNs(), heapAllocs()
			simMu.Lock()
			err := ref.replay(last + 1)
			simMu.Unlock()
			if err == nil && ref.log != nil {
				err = ref.log.save(*refOut)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
				return 1
			}
			fmt.Fprintf(bw, "ok %d %d %d\n", cpu, snapNs.Load(), alloc)
		case "quit":
			return 0
		default:
			fmt.Fprintf(os.Stderr, "fleet: unknown request %q\n", f[0])
			return 2
		}
		if err := bw.Flush(); err != nil {
			return 1
		}
	}
	return 0
}

// fleetProc is the control process's handle on a running fleet process.
type fleetProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	out    *bufio.Reader
	ready  fleetReady
	refOut string
}

func startFleet(w workload, seed int64, m modelFile, dir string, traced bool) (*fleetProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	refOut := filepath.Join(dir, "reference.json")
	cmd := exec.Command(exe, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
		"-nodes", strconv.Itoa(w.Nodes), "-trace="+strconv.FormatBool(traced),
		"-model", m.path, "-states", strconv.Itoa(m.states), "-ref", refOut)
	cmd.Env = append(os.Environ(), fleetEnv+"=1")
	cmd.Stderr = os.Stderr
	// The fleet dies with the control process, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	f := &fleetProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), refOut: refOut}
	trackFleet(f)
	line, err := f.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "ready ") {
		_ = f.close()
		return nil, fmt.Errorf("fleet: no ready line (%v)", err)
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "ready ")), &f.ready); err != nil {
		_ = f.close()
		return nil, fmt.Errorf("fleet: bad ready line: %w", err)
	}
	if len(f.ready.Sadc) != w.Nodes || len(f.ready.Hlog) != w.Nodes {
		_ = f.close()
		return nil, fmt.Errorf("fleet: %d/%d daemons for %d nodes", len(f.ready.Sadc), len(f.ready.Hlog), w.Nodes)
	}
	return f, nil
}

func (f *fleetProc) request(req string, want int) ([]int64, error) {
	if _, err := io.WriteString(f.stdin, req+"\n"); err != nil {
		return nil, fmt.Errorf("fleet: send %q: %w", req, err)
	}
	line, err := f.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("fleet: reply to %q: %w", req, err)
	}
	fields := strings.Fields(line)
	if len(fields) != want+1 || fields[0] != "ok" {
		return nil, fmt.Errorf("fleet: bad reply %q to %q", strings.TrimSpace(line), req)
	}
	vals := make([]int64, want)
	for i := range vals {
		if vals[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return nil, fmt.Errorf("fleet: bad reply %q: %w", strings.TrimSpace(line), err)
		}
	}
	return vals, nil
}

func (f *fleetProc) advance(tick int, spans bool) (advance, error) {
	s := "0"
	if spans {
		s = "1"
	}
	v, err := f.request(fmt.Sprintf("adv %d %s", tick, s), 9)
	if err != nil {
		return advance{}, err
	}
	return advance{Now: time.Unix(0, v[0]).UTC(), CPUBefore: v[1], CPUAfter: v[2], AdvNs: v[3], SnapNs: v[4], LogLines: v[5],
		AllocBefore: v[6], SimAlloc: v[7], AllocAfter: v[8]}, nil
}

func (f *fleetProc) final() (finalReport, error) {
	v, err := f.request("final", 3)
	if err != nil {
		return finalReport{}, err
	}
	r := finalReport{cpu: v[0], snapNs: v[1], alloc: v[2]}
	r.ref, err = loadSinkLog(f.refOut)
	return r, err
}

// close asks the fleet to exit, and kills it if it does not within a few
// seconds; either way it waits until the process has ended.
func (f *fleetProc) close() error {
	if f.cmd.ProcessState != nil {
		return nil
	}
	_, _ = io.WriteString(f.stdin, "quit\n")
	_ = f.stdin.Close()
	done := make(chan error, 1)
	go func() { done <- f.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		_ = f.cmd.Process.Kill()
		return <-done
	}
}

// cpuNs is this process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// rssMB is this process's resident set size (/proc/self/statm).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
