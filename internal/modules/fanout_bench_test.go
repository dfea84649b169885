package modules

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
)

// delayedSadcDaemon simulates a collection daemon one network round trip
// away: each pull sleeps for the configured latency, then serves one canned
// sadc.metrics row. Latency-bound concurrency gains show up even on a
// single CPU.
type delayedSadcDaemon struct {
	delay time.Duration
	rows  []rpc.StreamRow
}

// delayedSadcDial is an Env.Dial hook whose daemons answer after delay.
func delayedSadcDial(delay time.Duration) func(addr, client string) (Streamer, error) {
	return func(addr, client string) (Streamer, error) {
		row := rpc.StreamRow{Present: []bool{true}, Values: make([]float64, len(sadc.NodeMetricNames))}
		return &delayedSadcDaemon{delay: delay, rows: []rpc.StreamRow{row}}, nil
	}
}

func (d *delayedSadcDaemon) Stream(string, any) (rpc.Puller, error) { return d, nil }

func (d *delayedSadcDaemon) Pull() ([]rpc.StreamRow, error) {
	time.Sleep(d.delay)
	return d.rows, nil
}

// BenchmarkCollectionShards measures per-tick collection latency at
// simulated-cluster scale: one multi-node sadc instance polling daemons
// with a fixed 500µs per-RPC latency, swept by a single shard (the
// pre-sharding path, default fanout of 16) versus eight shards of 16
// workers each. Per-tick latency is latency-bound — nodes/(shards×fanout)
// round trips — so the sharded sweep must show a multiple-x win at 512
// nodes. The mode=... suffix is stripped by the CI benchstat step to
// produce the serial-vs-sharded comparison.
func BenchmarkCollectionShards(b *testing.B) {
	const rpcLatency = 500 * time.Microsecond
	for _, nodes := range []int{128, 512, 1024} {
		for _, mode := range []struct {
			name                string
			shards, shardFanout int
		}{{"serial", 1, 0}, {"sharded", 8, 16}} {
			b.Run(fmt.Sprintf("nodes=%d/mode=%s", nodes, mode.name), func(b *testing.B) {
				names := make([]string, nodes)
				addrs := make([]string, nodes)
				for i := range names {
					names[i] = fmt.Sprintf("n%04d", i)
					addrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
				}
				env := NewEnv()
				env.Dial = delayedSadcDial(rpcLatency)
				cfgText := fmt.Sprintf(
					"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nshards = %d\nshard_fanout = %d\n",
					strings.Join(names, ","), strings.Join(addrs, ","), mode.shards, mode.shardFanout)
				file, err := config.ParseString(cfgText)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.NewEngine(NewRegistry(env), file)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Unix(1_700_000_000, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Tick(start.Add(time.Duration(i+1) * time.Second)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCollectionFanout measures the per-tick collection latency of one
// multi-node sadc instance polling simulated daemons with a fixed 500µs
// per-RPC latency, serial (fanout=1) versus the bounded worker pool
// (fanout=0, i.e. min(16, nodes)). The mode=... suffix is stripped by the
// CI benchstat step to produce the serial-vs-parallel comparison.
func BenchmarkCollectionFanout(b *testing.B) {
	const rpcLatency = 500 * time.Microsecond
	for _, nodes := range []int{8, 32, 128} {
		for _, mode := range []struct {
			name   string
			fanout int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("nodes=%d/mode=%s", nodes, mode.name), func(b *testing.B) {
				names := make([]string, nodes)
				addrs := make([]string, nodes)
				for i := range names {
					names[i] = fmt.Sprintf("n%03d", i)
					addrs[i] = fmt.Sprintf("10.0.0.%d:9999", i)
				}
				env := NewEnv()
				env.Dial = delayedSadcDial(rpcLatency)
				cfgText := fmt.Sprintf(
					"[sadc]\nid = collect\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1s\nfanout = %d\n",
					strings.Join(names, ","), strings.Join(addrs, ","), mode.fanout)
				file, err := config.ParseString(cfgText)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := core.NewEngine(NewRegistry(env), file)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Unix(1_700_000_000, 0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := eng.Tick(start.Add(time.Duration(i+1) * time.Second)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
