package eval

import (
	"runtime"
	"time"

	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// OverheadRow is one row of Table 3: a monitoring process's CPU and memory
// cost. CPUPct is the percentage of one core consumed at a 1 Hz collection
// rate; MemoryMB is the resident heap attributable to the process's state.
type OverheadRow struct {
	Process  string
	CPUPct   float64
	MemoryMB float64
}

// MeasureTable3 reproduces the monitoring-overhead table by timing each
// collection path on a busy simulated node: the per-iteration CPU time at
// 1 Hz is the %CPU of one core. Memory is measured as the live-heap growth
// after instantiating each collector's state and running it to steady
// state.
func MeasureTable3(iterations int) ([]OverheadRow, error) {
	if iterations <= 0 {
		iterations = 200
	}
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(4, 99))
	if err != nil {
		return nil, err
	}
	c.RunFor(2 * time.Minute) // busy steady state
	node := c.Slave(0)

	rows := make([]OverheadRow, 0, 3)

	// hadoop_log_rpcd: incremental parse of both logs.
	heapBefore := liveHeap()
	ttSrc := modules.NewBufferLogSource(hadooplog.KindTaskTracker, node.TaskTrackerLog())
	dnSrc := modules.NewBufferLogSource(hadooplog.KindDataNode, node.DataNodeLog())
	start := time.Now()
	for i := 0; i < iterations; i++ {
		c.Tick()
		if _, err := ttSrc.Fetch(c.Now()); err != nil {
			return nil, err
		}
		if _, err := dnSrc.Fetch(c.Now()); err != nil {
			return nil, err
		}
	}
	hlPerIter := time.Since(start).Seconds() / float64(iterations)
	rows = append(rows, OverheadRow{
		Process:  "hadoop_log_rpcd",
		CPUPct:   hlPerIter * 100,
		MemoryMB: heapDeltaMB(heapBefore),
	})

	// sadc_rpcd: one full /proc collection per iteration.
	heapBefore = liveHeap()
	collector := sadc.NewCollector(node)
	start = time.Now()
	for i := 0; i < iterations; i++ {
		c.Tick()
		if _, err := collector.Collect(); err != nil {
			return nil, err
		}
	}
	sadcPerIter := time.Since(start).Seconds() / float64(iterations)
	rows = append(rows, OverheadRow{
		Process:  "sadc_rpcd",
		CPUPct:   sadcPerIter * 100,
		MemoryMB: heapDeltaMB(heapBefore),
	})

	// fpt-core: the control node's full analysis pipeline per iteration
	// (all nodes' collection plus both analyses), measured via the module
	// pipeline over the simulated cluster.
	heapBefore = liveHeap()
	pipe, err := newOverheadPipeline(c)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < iterations; i++ {
		c.Tick()
		if err := pipe.Tick(c.Now()); err != nil {
			return nil, err
		}
	}
	corePerIter := time.Since(start).Seconds() / float64(iterations)
	rows = append(rows, OverheadRow{
		Process:  "fpt-core",
		CPUPct:   corePerIter * 100,
		MemoryMB: heapDeltaMB(heapBefore),
	})
	return rows, nil
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func heapDeltaMB(before uint64) float64 {
	after := liveHeap()
	if after < before {
		return 0
	}
	return float64(after-before) / (1 << 20)
}

// ticker abstracts the engine for the overhead pipeline.
type ticker interface {
	Tick(now time.Time) error
}

// BandwidthRow is one row of Table 4: the RPC cost of one collection type.
type BandwidthRow struct {
	RPCType string
	// StaticKB is the connection-setup traffic, kB: the hello exchange, the
	// stream open, and the first pull, whose frame carries the schema and
	// the first row in full.
	StaticKB float64
	// PerIterKBs is steady-state traffic per one-second iteration, kB/s.
	PerIterKBs float64
}

// MeasureTable4 reproduces the RPC-bandwidth table with real TCP servers:
// a sadc_rpcd and hadoop_log_rpcd serve one busy simulated node over the
// columnar pull streams the collection modules use, and the client-side
// byte counters give the exact static and per-iteration wire traffic for
// each of the paper's three RPC types.
func MeasureTable4(iterations int) ([]BandwidthRow, error) {
	if iterations <= 0 {
		iterations = 60
	}
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(4, 77))
	if err != nil {
		return nil, err
	}
	c.RunFor(2 * time.Minute)
	node := c.Slave(0)

	sadcSrv := rpc.NewServer(modules.ServiceSadc)
	modules.RegisterSadcServer(sadcSrv, node)
	sadcAddr, err := sadcSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer closeQuiet(sadcSrv)

	hlSrv := rpc.NewServer(modules.ServiceHadoopLog)
	modules.RegisterHadoopLogServer(hlSrv, node.TaskTrackerLog(), node.DataNodeLog(), c.Now)
	hlAddr, err := hlSrv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer closeQuiet(hlSrv)

	// One managed client per stream, as the collection modules hold one
	// per daemon and log kind.
	sadcClient := rpc.NewManagedClient(sadcAddr.String(), "asdf-bench", rpc.Options{})
	defer closeQuiet(sadcClient)
	dnClient := rpc.NewManagedClient(hlAddr.String(), "asdf-bench", rpc.Options{})
	defer closeQuiet(dnClient)
	ttClient := rpc.NewManagedClient(hlAddr.String(), "asdf-bench", rpc.Options{})
	defer closeQuiet(ttClient)
	sadcSource, err := modules.NewColumnarMetricSource(sadcClient, node.Name, nil, nil)
	if err != nil {
		return nil, err
	}
	dnSource, err := modules.NewColumnarLogSource(dnClient, node.Name, hadooplog.KindDataNode)
	if err != nil {
		return nil, err
	}
	ttSource, err := modules.NewColumnarLogSource(ttClient, node.Name, hadooplog.KindTaskTracker)
	if err != nil {
		return nil, err
	}
	tick := func() error {
		c.Tick()
		if _, err := sadcSource.Collect(); err != nil {
			return err
		}
		if _, err := dnSource.Fetch(c.Now()); err != nil {
			return err
		}
		_, err := ttSource.Fetch(c.Now())
		return err
	}

	// The first tick dials, opens each stream, and carries the schema
	// frames: that is the static cost.
	if err := tick(); err != nil {
		return nil, err
	}
	staticOf := func(client *rpc.ManagedClient) float64 {
		sent, recv := client.Stats()
		return float64(sent+recv) / 1024
	}
	sadcStatic := staticOf(sadcClient)
	dnStatic := staticOf(dnClient)
	ttStatic := staticOf(ttClient)

	s0s, s0r := sadcClient.Stats()
	d0s, d0r := dnClient.Stats()
	t0s, t0r := ttClient.Stats()
	for i := 0; i < iterations; i++ {
		if err := tick(); err != nil {
			return nil, err
		}
	}
	perIter := func(client *rpc.ManagedClient, s0, r0 uint64) float64 {
		s1, r1 := client.Stats()
		return float64((s1-s0)+(r1-r0)) / 1024 / float64(iterations)
	}

	rows := []BandwidthRow{
		{RPCType: "sadc-tcp", StaticKB: sadcStatic, PerIterKBs: perIter(sadcClient, s0s, s0r)},
		{RPCType: "hl-dn-tcp", StaticKB: dnStatic, PerIterKBs: perIter(dnClient, d0s, d0r)},
		{RPCType: "hl-tt-tcp", StaticKB: ttStatic, PerIterKBs: perIter(ttClient, t0s, t0r)},
	}
	var sum BandwidthRow
	sum.RPCType = "TCP Sum"
	for _, r := range rows {
		sum.StaticKB += r.StaticKB
		sum.PerIterKBs += r.PerIterKBs
	}
	return append(rows, sum), nil
}

func closeQuiet(c interface{ Close() error }) {
	_ = c.Close()
}
