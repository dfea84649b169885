package eval

import (
	"fmt"
	"strings"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/modules"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// ShardScaleConfig sizes the shard-scaling measurement: one multi-node
// sadc instance per engine, polling simulated collection daemons a fixed
// RPC latency away, swept serially (a single shard at the default fanout)
// and sharded. The daemons are in-process fakes — a time.Sleep plus a
// canned stream row — so the measurement isolates the collection plane's
// concurrency structure from daemon cost, which Table 3 covers separately.
type ShardScaleConfig struct {
	// NodeCounts are the simulated cluster sizes to measure.
	NodeCounts []int
	// Shards and ShardFanout shape the sharded sweep (the serial baseline
	// always runs shards = 1 with the default fanout).
	Shards      int
	ShardFanout int
	// RPCLatency is the simulated per-call network round trip.
	RPCLatency time.Duration
	// Ticks is how many collection ticks to time per configuration.
	Ticks int
}

// DefaultShardScaleConfig mirrors the CI shard-scaling suite: 128 to 1024
// nodes, 8 shards of 16 workers, 500µs per RPC.
func DefaultShardScaleConfig() ShardScaleConfig {
	return ShardScaleConfig{
		NodeCounts:  []int{128, 512, 1024},
		Shards:      8,
		ShardFanout: 16,
		RPCLatency:  500 * time.Microsecond,
		Ticks:       20,
	}
}

// ShardScalePoint is one measured (nodes, mode) cell.
type ShardScalePoint struct {
	Nodes       int     `json:"nodes"`
	Shards      int     `json:"shards"`
	ShardFanout int     `json:"shard_fanout,omitempty"`
	PerTickMs   float64 `json:"per_tick_ms"`
	// SpeedupVsSerial is this cell's per-tick latency advantage over the
	// serial (single-shard) cell at the same node count; 1.0 for the
	// serial cells themselves.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// delayedDaemon fakes a collection daemon one network round trip away:
// every pull sleeps for the latency, then serves one sadc.metrics row.
type delayedDaemon struct {
	delay time.Duration
	rows  []rpc.StreamRow
}

// newDelayedDial returns an Env.Dial hook whose daemons answer after delay.
func newDelayedDial(delay time.Duration) func(addr, client string) (modules.Streamer, error) {
	return func(addr, client string) (modules.Streamer, error) {
		row := rpc.StreamRow{Present: []bool{true}, Values: make([]float64, len(sadc.NodeMetricNames))}
		return &delayedDaemon{delay: delay, rows: []rpc.StreamRow{row}}, nil
	}
}

func (d *delayedDaemon) Stream(string, any) (rpc.Puller, error) { return d, nil }

func (d *delayedDaemon) Pull() ([]rpc.StreamRow, error) {
	time.Sleep(d.delay)
	return d.rows, nil
}

// MeasureShardScaling times the per-tick collection sweep of one
// multi-node sadc instance at each configured node count, single-shard
// versus sharded, and reports both cells per node count (serial first).
func MeasureShardScaling(cfg ShardScaleConfig) ([]ShardScalePoint, error) {
	if cfg.Ticks <= 0 {
		return nil, fmt.Errorf("shardscale: ticks must be positive")
	}
	var points []ShardScalePoint
	for _, nodes := range cfg.NodeCounts {
		serial, err := timeSweep(nodes, 1, 0, cfg)
		if err != nil {
			return nil, err
		}
		sharded, err := timeSweep(nodes, cfg.Shards, cfg.ShardFanout, cfg)
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if sharded > 0 {
			speedup = float64(serial) / float64(sharded)
		}
		points = append(points,
			ShardScalePoint{Nodes: nodes, Shards: 1,
				PerTickMs: float64(serial) / float64(time.Millisecond), SpeedupVsSerial: 1},
			ShardScalePoint{Nodes: nodes, Shards: cfg.Shards, ShardFanout: cfg.ShardFanout,
				PerTickMs: float64(sharded) / float64(time.Millisecond), SpeedupVsSerial: speedup})
	}
	return points, nil
}

// timeSweep builds one engine around fake daemons and returns the mean
// per-tick wall time over cfg.Ticks ticks.
func timeSweep(nodes, shards, shardFanout int, cfg ShardScaleConfig) (time.Duration, error) {
	names := make([]string, nodes)
	addrs := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
		addrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
	}
	env := modules.NewEnv()
	env.Dial = newDelayedDial(cfg.RPCLatency)
	cfgText := fmt.Sprintf(
		"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nshards = %d\nshard_fanout = %d\n",
		strings.Join(names, ","), strings.Join(addrs, ","), shards, shardFanout)
	file, err := config.ParseString(cfgText)
	if err != nil {
		return 0, err
	}
	eng, err := core.NewEngine(modules.NewRegistry(env), file)
	if err != nil {
		return 0, err
	}
	virtual := time.Unix(1_700_000_000, 0)
	// One warmup tick keeps scheduler start-up out of the timing.
	if err := eng.Tick(virtual.Add(time.Second)); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < cfg.Ticks; i++ {
		if err := eng.Tick(virtual.Add(time.Duration(i+2) * time.Second)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(cfg.Ticks), nil
}
