package hadoopsim

import (
	"reflect"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/procfs"
	"github.com/asdf-project/asdf/internal/sadc"
)

func testCluster(t *testing.T, slaves int, seed int64) *Cluster {
	t.Helper()
	c, err := NewCluster(DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0, 1)
	if _, err := NewCluster(bad); err == nil {
		t.Error("zero slaves should be rejected")
	}
	bad = DefaultConfig(3, 1)
	bad.BlockSizeMB = 0
	if _, err := NewCluster(bad); err == nil {
		t.Error("zero block size should be rejected")
	}
	// Replication is clamped to the cluster size.
	cfg := DefaultConfig(2, 1)
	cfg.Replication = 5
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.Replication != 2 {
		t.Errorf("Replication = %d, want clamped to 2", c.cfg.Replication)
	}
}

func TestClusterProgressesAndCompletesJobs(t *testing.T) {
	c := testCluster(t, 6, 42)
	c.RunFor(10 * time.Minute)
	if c.JobsCompleted() == 0 {
		t.Error("no jobs completed in 10 virtual minutes")
	}
	if c.TasksCompleted() == 0 {
		t.Error("no tasks completed")
	}
	if c.JobsRunning() == 0 {
		t.Error("GridMix should keep jobs running")
	}
}

func TestClusterDeterminism(t *testing.T) {
	run := func() (int, uint64) {
		c := testCluster(t, 5, 7)
		c.RunFor(5 * time.Minute)
		snap, err := c.Slave(2).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return c.TasksCompleted(), snap.Stat.CPUTotal.User
	}
	t1, u1 := run()
	t2, u2 := run()
	if t1 != t2 || u1 != u2 {
		t.Errorf("same seed diverged: tasks %d vs %d, user jiffies %d vs %d", t1, t2, u1, u2)
	}
}

// TestClusterBitReproducible holds two identically seeded large clusters to
// bit-equal /proc state on every node at every tick. Large fleets are where
// iteration-order float sums (reduce shuffles from many map sources) show
// up; the detection benchmarks' reference runs rely on this.
func TestClusterBitReproducible(t *testing.T) {
	a := testCluster(t, 512, 1)
	b := testCluster(t, 512, 1)
	for tick := 1; tick <= 120; tick++ {
		a.Tick()
		b.Tick()
		for i, na := range a.Slaves() {
			sa, err := na.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sb, err := b.Slave(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("tick %d: node %d diverged between identically seeded clusters", tick, i)
			}
		}
	}
}

func TestAllSlavesDoWork(t *testing.T) {
	c := testCluster(t, 8, 11)
	c.RunFor(5 * time.Minute)
	for i, n := range c.Slaves() {
		snap, err := n.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		busy := snap.Stat.CPUTotal.User + snap.Stat.CPUTotal.System
		if busy == 0 {
			t.Errorf("slave %d never used CPU", i)
		}
		if n.TaskTrackerLog().Len() == 0 {
			t.Errorf("slave %d has an empty tasktracker log", i)
		}
	}
}

func TestCountersAreMonotonic(t *testing.T) {
	c := testCluster(t, 4, 3)
	var prev *procfs.Snapshot
	for i := 0; i < 120; i++ {
		c.Tick()
		snap, err := c.Slave(0).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			if snap.Stat.CPUTotal.Total() < prev.Stat.CPUTotal.Total() {
				t.Fatal("cpu jiffies went backwards")
			}
			if snap.Nets[0].RxBytes < prev.Nets[0].RxBytes {
				t.Fatal("rx bytes went backwards")
			}
			if snap.Disks[0].SectorsWritten < prev.Disks[0].SectorsWritten {
				t.Fatal("sectors written went backwards")
			}
		}
		prev = snap
	}
}

func TestCPUJiffiesConserved(t *testing.T) {
	c := testCluster(t, 4, 5)
	c.RunFor(2 * time.Minute)
	snap, err := c.Slave(1).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cpu := snap.Stat.CPUTotal
	total := cpu.Total()
	// 120 seconds * 4 cores * 100 jiffies = 48000, within jitter.
	want := 120.0 * 4 * 100
	if float64(total) < want*0.9 || float64(total) > want*1.1 {
		t.Errorf("total jiffies = %d, want about %v", total, want)
	}
}

func TestLogsParseBackToStates(t *testing.T) {
	// The simulator's logs must round-trip through the ASDF log parser:
	// every line is either parsed or provably irrelevant, and the parsed
	// states reflect real task activity.
	c := testCluster(t, 5, 9)
	c.RunFor(4 * time.Minute)
	sawTaskActivity := false
	for _, n := range c.Slaves() {
		p := hadooplog.NewParser(hadooplog.KindTaskTracker)
		lines, _ := n.TaskTrackerLog().ReadFrom(0)
		for _, l := range lines {
			if err := p.ParseLine(l); err != nil {
				t.Fatalf("slave %s line %q: %v", n.Name, l, err)
			}
		}
		if p.LinesSkipped > 0 {
			t.Errorf("slave %s: %d tasktracker lines not understood by the parser", n.Name, p.LinesSkipped)
		}
		p.Flush(c.Now())
		for _, v := range p.Drain() {
			for _, x := range v.Counts {
				if x > 0 {
					sawTaskActivity = true
				}
			}
		}

		dp := hadooplog.NewParser(hadooplog.KindDataNode)
		dnLines, _ := n.DataNodeLog().ReadFrom(0)
		for _, l := range dnLines {
			if err := dp.ParseLine(l); err != nil {
				t.Fatalf("slave %s dn line %q: %v", n.Name, l, err)
			}
		}
		if dp.LinesSkipped > 0 {
			t.Errorf("slave %s: %d datanode lines not understood", n.Name, dp.LinesSkipped)
		}
	}
	if !sawTaskActivity {
		t.Error("no task states inferred from any slave's logs")
	}
}

func TestDataNodeLogsIncludeBlockEvents(t *testing.T) {
	c := testCluster(t, 5, 13)
	c.RunFor(8 * time.Minute)
	var reads, writes, deletes int
	for _, n := range c.Slaves() {
		p := hadooplog.NewParser(hadooplog.KindDataNode)
		lines, _ := n.DataNodeLog().ReadFrom(0)
		for _, l := range lines {
			if err := p.ParseLine(l); err != nil {
				t.Fatal(err)
			}
		}
		p.Flush(c.Now())
		for _, v := range p.Drain() {
			reads += int(v.Counts[1])
			writes += int(v.Counts[0])
			deletes += int(v.Counts[2])
		}
	}
	if reads == 0 {
		t.Error("no block reads observed")
	}
	if writes == 0 {
		t.Error("no block writes observed")
	}
	if deletes == 0 {
		t.Error("no block deletions observed")
	}
}

// collectBusy runs the cluster with a sadc collector per node and returns
// mean cpu busy and iowait percentages per node over the interval.
func collectNodeMeans(t *testing.T, c *Cluster, seconds int, metric string) []float64 {
	t.Helper()
	idx := -1
	for i, name := range sadc.NodeMetricNames {
		if name == metric {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("metric %q unknown", metric)
	}
	collectors := make([]*sadc.Collector, len(c.Slaves()))
	sums := make([]float64, len(collectors))
	for i, n := range c.Slaves() {
		collectors[i] = sadc.NewCollector(n)
		if _, err := collectors[i].Collect(); err != nil { // warmup
			t.Fatal(err)
		}
	}
	for s := 0; s < seconds; s++ {
		c.Tick()
		for i := range collectors {
			rec, err := collectors[i].Collect()
			if err != nil {
				t.Fatal(err)
			}
			sums[i] += rec.Node[idx]
		}
	}
	for i := range sums {
		sums[i] /= float64(seconds)
	}
	return sums
}

func othersMean(vals []float64, skip int) float64 {
	var s float64
	var n int
	for i, v := range vals {
		if i == skip {
			continue
		}
		s += v
		n++
	}
	return s / float64(n)
}

func TestCPUHogManifestsInCPUMetrics(t *testing.T) {
	c := testCluster(t, 6, 21)
	c.RunFor(2 * time.Minute) // warm the cluster up
	if err := c.InjectFault(2, FaultCPUHog); err != nil {
		t.Fatal(err)
	}
	busy := collectNodeMeans(t, c, 120, "cpu_busy_pct")
	peers := othersMean(busy, 2)
	if busy[2] < peers+15 {
		t.Errorf("CPUHog node busy%% = %.1f, peers = %.1f; want clear separation", busy[2], peers)
	}
}

func TestDiskHogManifestsInDiskMetrics(t *testing.T) {
	c := testCluster(t, 6, 22)
	c.RunFor(2 * time.Minute)
	if err := c.InjectFault(1, FaultDiskHog); err != nil {
		t.Fatal(err)
	}
	util := collectNodeMeans(t, c, 120, "disk_util_pct")
	peers := othersMean(util, 1)
	if util[1] < peers+20 {
		t.Errorf("DiskHog node disk util = %.1f, peers = %.1f; want clear separation", util[1], peers)
	}
}

func TestDiskHogEndsAfterWritingItsData(t *testing.T) {
	cfg := DefaultConfig(4, 23)
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault(0, FaultDiskHog); err != nil {
		t.Fatal(err)
	}
	// 20 GB at <= 80 MB/s takes >= 256 s; after 500 s it must be done.
	c.RunFor(500 * time.Second)
	if c.Slave(0).diskHogLeft != 0 {
		t.Errorf("disk hog still has %.0f MB left after 500 s", c.Slave(0).diskHogLeft)
	}
}

func TestPacketLossManifestsInNetworkMetrics(t *testing.T) {
	c := testCluster(t, 6, 24)
	c.RunFor(2 * time.Minute)
	if err := c.InjectFault(3, FaultPacketLoss); err != nil {
		t.Fatal(err)
	}
	errs := collectNodeMeans(t, c, 120, "net_rx_errs_per_sec")
	peers := othersMean(errs, 3)
	if errs[3] <= peers {
		t.Errorf("PacketLoss node rx errors = %.2f, peers = %.2f; want elevated", errs[3], peers)
	}
}

func TestHang1036KeepsMapsRunningForever(t *testing.T) {
	c := testCluster(t, 6, 25)
	c.RunFor(2 * time.Minute)
	if err := c.InjectFault(4, FaultHang1036); err != nil {
		t.Fatal(err)
	}
	c.RunFor(4 * time.Minute)
	n := c.Slave(4)
	if len(n.mapAttempts) == 0 {
		t.Fatal("faulty node has no map attempts occupying slots")
	}
	hung := 0
	for _, a := range n.mapAttempts {
		if a.hang {
			hung++
		}
	}
	if hung == 0 {
		t.Error("no hung map attempts on the faulty node")
	}
	// The cluster keeps making progress via speculative re-execution.
	before := c.TasksCompleted()
	c.RunFor(2 * time.Minute)
	if c.TasksCompleted() <= before {
		t.Error("cluster stopped completing tasks despite speculation")
	}
}

func TestHang1152FailsReducesMidCopy(t *testing.T) {
	c := testCluster(t, 6, 26)
	c.RunFor(2 * time.Minute)
	if err := c.InjectFault(5, FaultHang1152); err != nil {
		t.Fatal(err)
	}
	c.RunFor(8 * time.Minute)
	lines, _ := c.Slave(5).TaskTrackerLog().ReadFrom(0)
	failures := 0
	for _, l := range lines {
		if contains(l, "failed to rename map output") {
			failures++
		}
	}
	if failures == 0 {
		t.Error("no mid-copy reduce failures logged on the faulty node")
	}
}

func TestHang2080StalsReducesAtSort(t *testing.T) {
	c := testCluster(t, 6, 27)
	c.RunFor(2 * time.Minute)
	if err := c.InjectFault(0, FaultHang2080); err != nil {
		t.Fatal(err)
	}
	// Hung attempts are eventually killed once a speculative twin wins, so
	// scan every tick for a reduce stuck in the sort phase.
	n := c.Slave(0)
	stuckSeconds := 0
	for i := 0; i < 10*60; i++ {
		c.Tick()
		for _, a := range n.reduceAttempts {
			if a.hang && a.phase == phaseSort {
				stuckSeconds++
			}
		}
	}
	if stuckSeconds == 0 {
		t.Error("no reduces ever hung in the sort phase on the faulty node")
	}
}

func TestInjectFaultValidation(t *testing.T) {
	c := testCluster(t, 3, 1)
	if err := c.InjectFault(99, FaultCPUHog); err == nil {
		t.Error("out-of-range node index should be rejected")
	}
	if err := c.InjectFault(1, FaultCPUHog); err != nil {
		t.Fatal(err)
	}
	if got := c.FaultyNodes(); len(got) != 1 || got[0] != 1 {
		t.Errorf("FaultyNodes = %v", got)
	}
	if err := c.InjectFault(1, FaultNone); err != nil {
		t.Fatal(err)
	}
	if got := c.FaultyNodes(); len(got) != 0 {
		t.Errorf("FaultyNodes after clear = %v", got)
	}
}

func TestFaultNames(t *testing.T) {
	want := map[FaultKind]string{
		FaultNone: "None", FaultCPUHog: "CPUHog", FaultDiskHog: "DiskHog",
		FaultPacketLoss: "PacketLoss", FaultHang1036: "HADOOP-1036",
		FaultHang1152: "HADOOP-1152", FaultHang2080: "HADOOP-2080",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
	if len(TableTwoFaults) != 6 {
		t.Errorf("TableTwoFaults = %d entries, want 6 (Table 2)", len(TableTwoFaults))
	}
	// The production-fault extensions and full-library ordering are covered
	// in fault_test.go.
}

func TestSadcCollectorWorksOnSimulatedNodes(t *testing.T) {
	c := testCluster(t, 3, 30)
	col := sadc.NewCollector(c.Slave(0))
	if _, err := col.Collect(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * time.Second)
	rec, err := col.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Node) != len(sadc.NodeMetricNames) {
		t.Fatalf("node vector = %d metrics", len(rec.Node))
	}
	if len(rec.Proc) != 2 {
		t.Errorf("expected tasktracker+datanode process metrics, got %d", len(rec.Proc))
	}
	if rec.ProcComm[pidTaskTracker] != "java_tasktracker" {
		t.Errorf("ProcComm = %v", rec.ProcComm)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
