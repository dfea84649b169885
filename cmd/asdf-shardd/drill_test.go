//go:build unix

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/rpc"
)

// This file is the multi-process hierarchy drill: a root asdf process and
// two asdf-shardd leaders run as real child processes against in-test sadc
// daemons, one leader is SIGKILLed mid-run and restarted on the same
// address, and the root's CSV output is checked for gap-fill rows, per-key
// timestamp monotonicity, and full recovery. The CI hierarchy-drill job runs
// it under -race with ASDF_DRILL_RACE=1 (so the children are raced too) and
// uploads the ASDF_FAULT_TRACE / ASDF_METRICS_DUMP artifacts.

// drillProvider is a thread-safe synthetic procfs provider: each Snapshot
// advances the counters by one synthetic second of steady load, so the
// collectors behind the daemon RPC boundary produce non-trivial rates
// without touching the host's real /proc.
type drillProvider struct {
	mu sync.Mutex
	n  uint64
}

func (p *drillProvider) Snapshot() (*procfs.Snapshot, error) {
	p.mu.Lock()
	n := p.n
	p.n++
	p.mu.Unlock()
	return &procfs.Snapshot{
		Time:   time.Now(),
		Uptime: 1000 + float64(n),
		Stat: procfs.Stat{
			CPUTotal: procfs.CPUStat{
				User: 1000 + 50*n, Nice: 10, System: 500 + 20*n,
				Idle: 8000 + 25*n, IOWait: 100 + 5*n,
			},
			PerCPU:          []procfs.CPUStat{{}, {}},
			ContextSwitches: 100000 + 3000*n,
			Interrupts:      50000 + 1500*n,
			Processes:       2000 + 10*n,
			ProcsRunning:    2,
		},
		Mem: procfs.Meminfo{
			MemTotal: 7864320, MemFree: 3932160, Buffers: 100000, Cached: 500000,
			SwapTotal: 1000000, SwapFree: 900000, Active: 200000, Inactive: 100000,
			Dirty: 2048, CommittedAS: 4000000,
		},
		VM: procfs.VMStat{
			PgpgIn: 1000 + 400*n, PgpgOut: 2000, PgFault: 50000 + 250*n, PgMajFault: 10,
		},
		Load: procfs.LoadAvg{Load1: 1.5, Load5: 1.0, Load15: 0.5, Running: 2, Total: 150},
		Disks: []procfs.DiskStat{{
			Name: "sda", ReadsCompleted: 1000 + 10*n, WritesCompleted: 2000 + 20*n,
			SectorsRead: 80000 + 800*n, SectorsWritten: 160000 + 1600*n,
			IOTimeMs: 5000 + 50*n, WeightedIOMs: 7000 + 70*n,
		}},
		Nets: []procfs.NetDevStat{{
			Iface: "eth0", RxBytes: 1<<20 + 4096*n, TxBytes: 2<<20 + 8192*n,
			RxPackets: 10000 + 40*n, TxPackets: 20000 + 80*n,
		}},
		Procs: []procfs.PIDStat{{
			PID: 42, Comm: "java", State: 'R', UTime: 500 + 5*n, STime: 100 + 2*n,
			NumThreads: 30, StartTime: 100, VSizeBytes: 1 << 30, RSSPages: 50000,
			MinFlt: 1000 + 10*n, MajFlt: 5, ReadBytes: 1 << 20, WriteBytes: 2 << 20,
		}},
	}, nil
}

// buildDrillBinaries compiles asdf and asdf-shardd into dir. With
// ASDF_DRILL_RACE=1 the children are built with -race, so the drill
// exercises the full tree under the race detector (the CI job sets it; a
// plain `go test ./...` run skips the extra instrumentation cost).
func buildDrillBinaries(t *testing.T, dir string) (asdfBin, sharddBin string) {
	t.Helper()
	asdfBin = filepath.Join(dir, "asdf")
	sharddBin = filepath.Join(dir, "asdf-shardd")
	args := []string{"build"}
	if os.Getenv("ASDF_DRILL_RACE") == "1" {
		args = append(args, "-race")
	}
	for bin, pkg := range map[string]string{
		asdfBin:   "github.com/asdf-project/asdf/cmd/asdf",
		sharddBin: "github.com/asdf-project/asdf/cmd/asdf-shardd",
	} {
		cmd := exec.Command("go", append(args, "-o", bin, pkg)...)
		cmd.Dir = findModuleRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return asdfBin, sharddBin
}

func findModuleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test working directory")
		}
		dir = parent
	}
}

// reserveAddr grabs a free loopback port and releases it, so a child
// process (and, for the killed leader, its replacement) can listen on a
// known address the root's configuration already names.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// startProc launches a child with stdout/stderr appended to logPath and
// registers a cleanup kill. The returned process is already started.
func startProc(t *testing.T, logPath, bin string, args ...string) *exec.Cmd {
	t.Helper()
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		_ = f.Close()
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		_ = f.Close()
	})
	return cmd
}

func waitTCP(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			_ = c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s did not start listening within %s", addr, timeout)
}

// drillStatus is the slice of the root's /status document the drill reads.
type drillStatus struct {
	Healthy   bool `json:"healthy"`
	Instances []struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		GapFills uint64 `json:"gap_fills"`
	} `json:"instances"`
	Leaders map[string][]modules.LeaderStatus `json:"leaders"`
}

// gapFills returns the named instance's gap-fill counter, 0 if absent.
func (st drillStatus) gapFills(id string) uint64 {
	for _, in := range st.Instances {
		if in.ID == id {
			return in.GapFills
		}
	}
	return 0
}

// leader returns the instance's LeaderStatus for addr, nil if absent.
func (st drillStatus) leader(id, addr string) *modules.LeaderStatus {
	for i := range st.Leaders[id] {
		if st.Leaders[id][i].Addr == addr {
			return &st.Leaders[id][i]
		}
	}
	return nil
}

func fetchStatus(statusAddr string) (drillStatus, error) {
	var st drillStatus
	resp, err := http.Get("http://" + statusAddr + "/status")
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitStatus polls the root's /status until cond accepts a snapshot.
func waitStatus(t *testing.T, statusAddr, desc string, timeout time.Duration, cond func(drillStatus) bool) drillStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last drillStatus
	var lastErr error
	for time.Now().Before(deadline) {
		st, err := fetchStatus(statusAddr)
		if err == nil {
			last = st
			if cond(st) {
				return st
			}
		}
		lastErr = err
		time.Sleep(200 * time.Millisecond)
	}
	buf, _ := json.Marshal(last)
	t.Fatalf("timed out after %s waiting for %s (last error: %v, last status: %s)",
		timeout, desc, lastErr, buf)
	return drillStatus{}
}

// metricTotal sums every sample of a counter family in Prometheus
// exposition text, across label sets.
func metricTotal(text, name string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if len(rest) > 0 && rest[0] == '{' {
			if i := strings.IndexByte(rest, '}'); i >= 0 {
				rest = rest[i+1:]
			}
		}
		rest = strings.TrimSpace(rest)
		if rest == "" || strings.HasPrefix(rest, "_") { // longer family name
			continue
		}
		if v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
			total += v
		}
	}
	return total
}

// TestHierarchyDrill is the end-to-end kill/recover drill. Timeline:
//
//  1. Four in-test sadc daemons serve synthetic /proc snapshots; two
//     asdf-shardd leaders (2 nodes each) and a root asdf with period=1s,
//     -degrade hold start as child processes.
//  2. Once both leaders have merged partials, leader0 is SIGKILLed. The
//     root's collector degrades like a node failure: errors, quarantine,
//     gap-fill rows marked ";degraded".
//  3. Leader0 restarts on the same address; the root reconnects, counts a
//     leader restart, and clean rows resume for every node.
//  4. The root exits on SIGTERM (flushing its CSV); the trace must show
//     degraded rows, per-key strictly increasing timestamps, and a clean
//     final row for all four nodes.
func TestHierarchyDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process drill takes ~30s of wall clock")
	}
	dir := t.TempDir()
	asdfBin, sharddBin := buildDrillBinaries(t, dir)
	trace := drillTrace(t)

	// In-test daemons: one RPC server per node, each with its own provider.
	names := []string{"n0", "n1", "n2", "n3"}
	daemonAddrs := make([]string, len(names))
	for i := range names {
		srv := rpc.NewServer(modules.ServiceSadc)
		modules.RegisterSadcServer(srv, &drillProvider{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		daemonAddrs[i] = addr.String()
	}

	leader0Addr := reserveAddr(t)
	leader1Addr := reserveAddr(t)
	statusAddr := reserveAddr(t)

	leaderArgs := func(listen string, lo int) []string {
		return []string{
			"-listen", listen,
			"-name", "leader" + strconv.Itoa(lo/2),
			"-nodes", strings.Join(names[lo:lo+2], ","),
			"-sadc-addrs", strings.Join(daemonAddrs[lo:lo+2], ","),
			"-fanout", "2",
			"-call-timeout", "2s",
			"-breaker-threshold", "2",
			"-breaker-cooldown", "1s",
			"-reconnect-backoff", "100ms",
		}
	}
	leader0 := startProc(t, filepath.Join(dir, "leader0.log"), sharddBin, leaderArgs(leader0Addr, 0)...)
	startProc(t, filepath.Join(dir, "leader1.log"), sharddBin, leaderArgs(leader1Addr, 2)...)
	waitTCP(t, leader0Addr, 10*time.Second)
	waitTCP(t, leader1Addr, 10*time.Second)
	fmt.Fprintf(trace, "leaders up: %s %s\n", leader0Addr, leader1Addr)

	// Root: every node delegated, columnar hop, 1s period (CSV timestamps
	// have second resolution, so one row per key per second keeps the
	// strict-monotonicity assertion meaningful).
	csvPath := filepath.Join(dir, "out.csv")
	var cfg strings.Builder
	fmt.Fprintf(&cfg, "[sadc]\nid = cluster\nnodes = %s\nmode = rpc\naddrs = -,-,-,-\nperiod = 1\n",
		strings.Join(names, ","))
	fmt.Fprintf(&cfg, "leaders = %s,%s\nleader_ranges = 0-2,2-4\n\n", leader0Addr, leader1Addr)
	fmt.Fprintf(&cfg, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&cfg, "input[m%d] = cluster.%s\n", i, n)
	}
	cfgPath := filepath.Join(dir, "drill.conf")
	if err := os.WriteFile(cfgPath, []byte(cfg.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	root := startProc(t, filepath.Join(dir, "root.log"), asdfBin,
		"-config", cfgPath,
		"-status-addr", statusAddr,
		"-call-timeout", "2s",
		"-reconnect-backoff", "100ms",
		"-breaker-threshold", "2",
		"-breaker-cooldown", "1s",
		"-quarantine-threshold", "2",
		"-quarantine-cooldown", "2s",
		"-degrade", "hold",
	)

	// Phase 1: healthy hierarchy — both leaders connected and merging.
	waitStatus(t, statusAddr, "both leaders merging partials", 30*time.Second, func(st drillStatus) bool {
		ls := st.Leaders["cluster"]
		if len(ls) != 2 {
			return false
		}
		for _, l := range ls {
			if l.Partials < 3 {
				return false
			}
		}
		return st.Healthy
	})
	fmt.Fprintf(trace, "phase 1: hierarchy healthy, partials flowing\n")

	// Phase 2: kill leader0 outright; the root must degrade, not wedge.
	if err := root.Process.Signal(syscall.Signal(0)); err != nil {
		t.Fatalf("root died before the kill: %v", err)
	}
	if err := leader0.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = leader0.Process.Wait()
	fmt.Fprintf(trace, "phase 2: SIGKILL leader0 (%s)\n", leader0Addr)
	killed := waitStatus(t, statusAddr, "gap-fill after leader0 kill", 30*time.Second, func(st drillStatus) bool {
		return st.gapFills("cluster") > 0
	})
	fmt.Fprintf(trace, "phase 2: root degraded (gap_fills=%d)\n", killed.gapFills("cluster"))

	// Phase 3: restart leader0 on the same address and wait for recovery:
	// connection re-established, restart counted, partials flowing again,
	// collector readmitted.
	startProc(t, filepath.Join(dir, "leader0.log"), sharddBin, leaderArgs(leader0Addr, 0)...)
	waitTCP(t, leader0Addr, 10*time.Second)
	fmt.Fprintf(trace, "phase 3: leader0 restarted on %s\n", leader0Addr)
	atKill := killed.leader("cluster", leader0Addr)
	if atKill == nil {
		t.Fatalf("leader %s missing from /status at kill time", leader0Addr)
	}
	recovered := waitStatus(t, statusAddr, "recovery after leader0 restart", 45*time.Second, func(st drillStatus) bool {
		l0 := st.leader("cluster", leader0Addr)
		if l0 == nil || l0.Restarts < 1 || l0.Health == nil || !l0.Health.Connected {
			return false
		}
		return st.Healthy && l0.Partials > atKill.Partials+2
	})
	l0 := recovered.leader("cluster", leader0Addr)
	fmt.Fprintf(trace, "phase 3: recovered (leader0 restarts=%d partials=%d)\n",
		l0.Restarts, l0.Partials)

	// Let a few clean post-recovery ticks land, then scrape the hierarchy
	// metrics before shutting down.
	time.Sleep(3 * time.Second)
	metrics := scrapeMetrics(t, statusAddr)
	if got := metricTotal(metrics, "asdf_hier_partials_total"); got <= 0 {
		t.Errorf("asdf_hier_partials_total = %v, want > 0", got)
	}
	if got := metricTotal(metrics, "asdf_hier_leader_restarts_total"); got < 1 {
		t.Errorf("asdf_hier_leader_restarts_total = %v, want >= 1", got)
	}

	// Graceful shutdown flushes the CSV sink.
	if err := root.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := root.Wait(); err != nil {
		logs, _ := os.ReadFile(filepath.Join(dir, "root.log"))
		t.Fatalf("root exit: %v\n%s", err, logs)
	}
	fmt.Fprintf(trace, "phase 4: root exited cleanly\n")

	assertDrillCSV(t, csvPath, names)
}

// assertDrillCSV checks the flushed trace: presence of gap-fill rows,
// strictly increasing per-key timestamps (no duplicate or rewound rows from
// the leader outage), and a clean final row for every node.
func assertDrillCSV(t *testing.T, csvPath string, names []string) {
	t.Helper()
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || lines[0] != "time,node,source,output,values" {
		t.Fatalf("unexpected CSV shape (%d lines, header %q)", len(lines), lines[0])
	}
	type keyState struct {
		last         time.Time
		lastDegraded bool
	}
	perKey := make(map[string]*keyState)
	degraded := 0
	for _, line := range lines[1:] {
		f := strings.SplitN(line, ",", 5)
		if len(f) != 5 {
			t.Fatalf("malformed CSV row %q", line)
		}
		ts, err := time.Parse("2006-01-02T15:04:05", f[0])
		if err != nil {
			t.Fatalf("bad timestamp in row %q: %v", line, err)
		}
		key := f[1] + "/" + f[2] + "/" + f[3]
		st := perKey[key]
		if st == nil {
			st = &keyState{}
			perKey[key] = st
		} else if !ts.After(st.last) {
			t.Errorf("key %s: timestamp %s does not advance past %s",
				key, f[0], st.last.Format("2006-01-02T15:04:05"))
		}
		st.last = ts
		st.lastDegraded = strings.HasSuffix(f[4], ";degraded")
		if st.lastDegraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no ;degraded gap-fill rows despite the leader outage")
	}
	for _, n := range names {
		st := perKey[n+"/sadc/"+n]
		if st == nil {
			t.Errorf("node %s has no CSV rows", n)
			continue
		}
		if st.lastDegraded {
			t.Errorf("node %s: final row still degraded — no recovery", n)
		}
	}
}

// drillTrace returns the shared fault-trace writer named by
// ASDF_FAULT_TRACE (the CI hierarchy-drill job uploads it as an artifact),
// or io.Discard when unset.
func drillTrace(t *testing.T) io.Writer {
	t.Helper()
	path := os.Getenv("ASDF_FAULT_TRACE")
	if path == "" {
		return io.Discard
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open fault trace %s: %v", path, err)
	}
	t.Cleanup(func() { _ = f.Close() })
	fmt.Fprintf(f, "=== %s\n", t.Name())
	return f
}

// scrapeMetrics fetches the root's Prometheus exposition text and, when
// ASDF_METRICS_DUMP names a directory, writes it there as <TestName>.txt.
func scrapeMetrics(t *testing.T, statusAddr string) string {
	t.Helper()
	resp, err := http.Get("http://" + statusAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	if dir := os.Getenv("ASDF_METRICS_DUMP"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatalf("ASDF_METRICS_DUMP: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, t.Name()+".txt"), buf, 0o644); err != nil {
			t.Fatalf("ASDF_METRICS_DUMP: %v", err)
		}
	}
	return string(buf)
}
