package modules

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/hierarchy"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/sadc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// sadcModule is the black-box data-collection module (§3.5): it samples OS
// performance counters each period and publishes node-level metric vectors
// (64 metrics). In the single-node form (node =) the vector appears on
// output0, with per-interface vectors (18 metrics) and per-process vectors
// (19 metrics) as additional outputs on request, completing the paper's
// full metric surface. In the multi-node form (nodes =) one instance polls
// every listed node concurrently under a bounded worker pool and publishes
// one output per node, named after the node — so per-tick collection
// latency stays O(nodes/fanout) round trips instead of O(nodes).
//
// Parameters:
//
//	node         = <node name>          (single-node form)
//	nodes        = n1,n2,...            (multi-node form; excludes node/ifaces/pids)
//	period       = <duration>           (default 1s)
//	mode         = local | rpc          (default local)
//	addr         = host:port            (rpc, single-node form)
//	addrs        = host1:p,host2:p,...  (rpc, multi-node form; parallel to nodes)
//	fanout       = <int>                (multi-node: max concurrent collects;
//	                                     default min(16, numNodes), 1 = serial)
//	shards       = <int>                (independent shard workers over the node
//	                                     set; default 1 = the unsharded sweep)
//	shard_fanout = <int>                (per-shard concurrent-fetch budget;
//	                                     default: the fanout parameter)
//	leaders      = host1:p,host2:p,...  (rpc multi-node: delegate node ranges
//	                                     to asdf-shardd leader processes; the
//	                                     delegated addrs entries become "-")
//	leader_ranges = 0-64,64-128,...     (half-open node-index range per leader,
//	                                     parallel to leaders; undelegated
//	                                     indexes stay direct)
//	ifaces       = eth0,eth1            (single-node: adds outputs net_<iface>)
//	pids         = 3001,3002            (single-node: adds outputs proc_<pid>)
//
// In rpc mode each node keeps its own supervised ManagedClient and pulls one
// columnar sadc.metrics frame per tick over it, so breaker state and
// reconnect backoff stay per node regardless of fanout or shard count. With
// shards >= 2 the node set is split into contiguous node-index ranges swept
// by independent worker pools; results are still merged in node-index
// order, so output is identical to the unsharded sweep.
type sadcModule struct {
	env     *Env
	id      string
	nodes   []string
	single  bool // the node= form: output0 plus iface/pid extras
	sources []MetricSource
	clients []Streamer // rpc mode: parallel to nodes; nil otherwise
	outs    []*core.OutputPort
	fanout  int
	sharder *shardSweeper
	hier    *leaderSet // delegated ranges (leaders =); nil without delegation

	// Replay guard (crash-safe restart): lastPub is the newest published
	// tick (unixnano; atomic so the state snapshotter can read it beside a
	// running engine), replayBar the restored watermark at or below which
	// publishes are refused after a restart.
	lastPub   atomic.Int64
	replayBar atomic.Int64

	ifaces    []string
	pids      []int
	ifaceOuts map[string]*core.OutputPort
	pidOuts   map[int]*core.OutputPort

	// fan-out scratch, indexed by node; results are merged in node order
	// after the concurrent sweep so output stays deterministic.
	recs []*sadc.Record
	errs []error
}

func (m *sadcModule) Init(ctx *core.InitContext) error {
	m.id = ctx.ID()
	cfg := ctx.Config()
	node := cfg.StringParam("node", "")
	nodesParam := cfg.StringParam("nodes", "")
	switch {
	case node != "" && nodesParam != "":
		return fmt.Errorf("sadc: node and nodes are mutually exclusive")
	case node != "":
		m.nodes = []string{node}
		m.single = true
	case nodesParam != "":
		m.nodes = splitList(nodesParam)
		if len(m.nodes) == 0 {
			return fmt.Errorf("sadc: empty node list")
		}
	default:
		return errMissingParam("sadc", "node")
	}
	period, err := cfg.DurationParam("period", time.Second)
	if err != nil {
		return err
	}
	if m.fanout, err = cfg.FanoutParam(); err != nil {
		return err
	}
	sp, err := cfg.ShardParams()
	if err != nil {
		return err
	}
	m.ifaces = splitList(cfg.StringParam("ifaces", ""))
	for _, p := range splitList(cfg.StringParam("pids", "")) {
		pid, err := strconv.Atoi(p)
		if err != nil {
			return fmt.Errorf("sadc: pid %q: %w", p, err)
		}
		m.pids = append(m.pids, pid)
	}
	mode := cfg.StringParam("mode", "local")
	leaderAddrs, leaderRanges, err := parseHierParams(cfg, "sadc", mode, len(m.nodes))
	if err != nil {
		return err
	}
	if len(leaderAddrs) > 0 && m.single {
		return fmt.Errorf("sadc: leaders requires the multi-node (nodes =) form")
	}
	switch mode {
	case "local":
		for _, n := range m.nodes {
			provider, ok := m.env.Procfs[n]
			if !ok {
				return fmt.Errorf("sadc: no procfs provider registered for node %q", n)
			}
			m.sources = append(m.sources, sadc.NewCollector(provider))
		}
	case "rpc":
		rp, err := cfg.ResilienceParams()
		if err != nil {
			return err
		}
		var addrs []string
		if m.single {
			addr := cfg.StringParam("addr", "")
			if addr == "" {
				return errMissingParam("sadc", "addr")
			}
			addrs = []string{addr}
		} else {
			addrsParam := cfg.StringParam("addrs", "")
			if addrsParam == "" {
				return errMissingParam("sadc", "addrs")
			}
			addrs = splitList(addrsParam)
			if len(addrs) != len(m.nodes) {
				return fmt.Errorf("sadc: %d addrs for %d nodes", len(addrs), len(m.nodes))
			}
		}
		delegated := markDelegated(len(m.nodes), leaderRanges)
		for i, a := range addrs {
			if delegated != nil && delegated[i] {
				// The leader owns this node's daemon connection; the addrs
				// entry is a "-" placeholder (a real address is tolerated so
				// a config can flip delegation on and off without edits).
				m.clients = append(m.clients, nil)
				m.sources = append(m.sources, nil)
				continue
			}
			if a == "-" {
				return fmt.Errorf("sadc: addr %q for undelegated node %s", a, m.nodes[i])
			}
			client, err := m.env.dial(a, "asdf-sadc", rp)
			if err != nil {
				return fmt.Errorf("sadc[%s]: dial %s: %w", m.nodes[i], a, err)
			}
			m.clients = append(m.clients, client)
			src, err := NewColumnarMetricSource(client, m.nodes[i], m.ifaces, m.pids)
			if err != nil {
				return fmt.Errorf("sadc[%s]: %w", m.nodes[i], err)
			}
			m.sources = append(m.sources, src)
		}
		if len(leaderAddrs) > 0 {
			m.hier, err = newLeaderSet(m.env, ctx.ID(), m.nodes, leaderAddrs, leaderRanges,
				rp, hierarchy.MethodSadcStream, len(sadc.NodeMetricNames))
			if err != nil {
				return fmt.Errorf("sadc: %w", err)
			}
		}
	default:
		return fmt.Errorf("sadc: unknown mode %q", mode)
	}
	m.sharder = newShardSweeper(m.env, ctx.ID(), len(m.nodes), sp, m.fanout)

	if m.single {
		out, err := ctx.NewOutput("output0", core.Origin{
			Node:   m.nodes[0],
			Source: "sadc",
			Metric: "node-metrics",
		})
		if err != nil {
			return err
		}
		m.outs = []*core.OutputPort{out}

		m.ifaceOuts = make(map[string]*core.OutputPort)
		for _, iface := range m.ifaces {
			out, err := ctx.NewOutput("net_"+iface, core.Origin{
				Node:   m.nodes[0],
				Source: "sadc",
				Metric: "net-metrics:" + iface,
			})
			if err != nil {
				return err
			}
			m.ifaceOuts[iface] = out
		}
		m.pidOuts = make(map[int]*core.OutputPort)
		for _, pid := range m.pids {
			p := strconv.Itoa(pid)
			out, err := ctx.NewOutput("proc_"+p, core.Origin{
				Node:   m.nodes[0],
				Source: "sadc",
				Metric: "proc-metrics:" + p,
			})
			if err != nil {
				return err
			}
			m.pidOuts[pid] = out
		}
	} else {
		for _, p := range []string{"ifaces", "pids", "addr"} {
			if _, ok := cfg.Param(p); ok {
				return fmt.Errorf("sadc: parameter %q requires the single-node (node =) form", p)
			}
		}
		for _, n := range m.nodes {
			out, err := ctx.NewOutput(n, core.Origin{
				Node:   n,
				Source: "sadc",
				Metric: "node-metrics",
			})
			if err != nil {
				return err
			}
			m.outs = append(m.outs, out)
		}
	}
	m.recs = make([]*sadc.Record, len(m.nodes))
	m.errs = make([]error, len(m.nodes))
	return ctx.SchedulePeriodic(period)
}

// splitList splits a comma-separated parameter, dropping empties.
func splitList(v string) []string {
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func (m *sadcModule) Run(ctx *core.RunContext) error {
	if ctx.Reason != core.RunPeriodic {
		return nil
	}
	// Delegated ranges are fetched from their leaders concurrently with the
	// direct sweep; the two paths write disjoint node indexes of the same
	// scratch, and the serial merge below reads both in node order.
	var hierWG sync.WaitGroup
	if m.hier != nil {
		hierWG.Add(1)
		go func() {
			defer hierWG.Done()
			m.hier.sweepSadc(m.recs, m.errs)
		}()
	}
	m.sharder.sweep(func(i int) error {
		if m.sources[i] == nil {
			return nil // delegated to a leader
		}
		m.recs[i], m.errs[i] = m.sources[i].Collect()
		return m.errs[i]
	})
	hierWG.Wait()
	if m.clients != nil || m.hier != nil {
		open, total := countBreakers(m.clients)
		if m.hier != nil {
			ho, ht := countBreakers(m.hier.clients())
			open, total = open+ho, total+ht
		}
		m.env.Adaptive.ObserveBreakers(m.id, open, total)
	}
	// Replayed tick: a restarted control node resumes at the persisted
	// watermark; collection still runs (warming rate state), but nothing
	// at or before an already-published timestamp is re-published.
	replay := m.replayBar.Load() != 0 && !ctx.Now.IsZero() &&
		ctx.Now.UnixNano() <= m.replayBar.Load()
	var firstErr error
	published := false
	for i, rec := range m.recs {
		if err := m.errs[i]; err != nil {
			// One unreachable node must not stop collection from the rest.
			if firstErr == nil {
				firstErr = fmt.Errorf("sadc[%s]: %w", m.nodes[i], err)
			}
			continue
		}
		if rec.Warmup || replay {
			// Rates need a second snapshot; skip the warmup record.
			continue
		}
		// Black-box samples are timestamped on the control node (§3.7).
		m.outs[i].Publish(core.Sample{Time: ctx.Now, Values: rec.Node})
		published = true
		if m.single {
			for iface, out := range m.ifaceOuts {
				if v, ok := rec.Net[iface]; ok {
					out.Publish(core.Sample{Time: ctx.Now, Values: v})
				}
			}
			for pid, out := range m.pidOuts {
				if v, ok := rec.Proc[pid]; ok {
					out.Publish(core.Sample{Time: ctx.Now, Values: v})
				}
			}
		}
	}
	if published {
		m.lastPub.Store(ctx.Now.UnixNano())
	}
	return firstErr
}

// ReplayWatermark reports the newest published tick; ok is false before the
// first publish. Part of the crash-safe state surface (internal/state).
func (m *sadcModule) ReplayWatermark() (time.Time, bool) {
	lp := m.lastPub.Load()
	if lp == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, lp).UTC(), true
}

// RestoreReplayWatermark arms the replay guard after a restart: ticks at or
// before t were published by a previous life and must not be re-published.
func (m *sadcModule) RestoreReplayWatermark(t time.Time) {
	m.replayBar.Store(t.UnixNano())
	m.lastPub.Store(t.UnixNano())
}

// ExportBreakerSnapshots snapshots per-node breaker state — leader
// connections included — for persistence (nil in local mode or with an
// unsupervised custom dialer).
func (m *sadcModule) ExportBreakerSnapshots() map[string]rpc.BreakerSnapshot {
	out := exportBreakers(m.clients)
	if m.hier != nil {
		out = mergeBreakerSnaps(out, exportBreakers(m.hier.clients()))
	}
	return out
}

// ImportBreakerSnapshots restores persisted breaker state, staggering
// re-probes of non-closed breakers through plan.
func (m *sadcModule) ImportBreakerSnapshots(snaps map[string]rpc.BreakerSnapshot, plan *rpc.ProbePlanner) int {
	n := importBreakers(m.clients, snaps, plan)
	if m.hier != nil {
		n += importBreakers(m.hier.clients(), snaps, plan)
	}
	return n
}

// ClientHealth reports the supervised connection's health for the
// single-node rpc form; ok is false in local mode, the multi-node form, or
// with an unsupervised custom dialer.
func (m *sadcModule) ClientHealth() (rpc.Health, bool) {
	if !m.single || len(m.clients) == 0 {
		return rpc.Health{}, false
	}
	return sourceHealth(m.clients[0])
}

// ClientHealths reports per-node connection health in rpc mode (nil in
// local mode or with an unsupervised custom dialer), keyed by node name;
// leader connections appear as "leader:<addr>" rows.
func (m *sadcModule) ClientHealths() map[string]rpc.Health {
	if m.clients == nil && m.hier == nil {
		return nil
	}
	out := make(map[string]rpc.Health, len(m.clients))
	for i, c := range m.clients {
		if h, ok := sourceHealth(c); ok {
			out[m.nodes[i]] = h
		}
	}
	if m.hier != nil {
		m.hier.healths(out)
	}
	return out
}

// ShardStatuses reports per-shard sweep accounting (with per-shard open
// breaker counts in rpc mode); nil when the instance runs a single shard.
func (m *sadcModule) ShardStatuses() []ShardStatus {
	return m.sharder.statusesWithBreakers(m.clients)
}

// LeaderStatuses reports per-leader delegation accounting; nil without
// delegated ranges.
func (m *sadcModule) LeaderStatuses() []LeaderStatus {
	if m.hier == nil {
		return nil
	}
	return m.hier.statuses()
}

var _ core.Module = (*sadcModule)(nil)

// hadoopLogModule is the white-box data-collection module (§4.4): it parses
// every monitored node's TaskTracker or DataNode log into per-second state
// vectors and publishes one output per node. Because log data appears at
// slightly different times on different nodes, the module performs
// cross-node timestamp synchronization internally (§3.7): a timestamp is
// published when every node has revealed data for it; timestamps missing on
// some node once every node has moved past them are dropped.
//
// The strict rule stalls the whole cluster on one dead node, so the module
// also supports degraded-mode synchronization: with sync_deadline set, a
// timestamp older than the deadline (relative to the collection clock) is
// resolved from the nodes that did report, provided at least sync_quorum
// nodes reported it — published as a partial sample set (absent nodes
// publish nothing for that second, so downstream analyses see partial
// vectors), or dropped below quorum. Defaults (no deadline, quorum = all
// nodes) reproduce the paper's strict behaviour exactly.
//
// Parameters:
//
//	kind          = tasktracker | datanode  (required)
//	nodes         = n1,n2,...               (required)
//	period        = <duration>              (default 1s)
//	mode          = local | rpc             (default local)
//	addrs         = host1:p,host2:p,...     (required for rpc; parallel to nodes)
//	fanout        = <int>                   (max concurrent fetches per period;
//	                                         default min(16, numNodes), 1 = serial)
//	shards        = <int>                   (independent shard workers over the
//	                                         node set; default 1)
//	shard_fanout  = <int>                   (per-shard fetch budget; default:
//	                                         the fanout parameter)
//	leaders       = host1:p,host2:p,...     (rpc: delegate node ranges to
//	                                         asdf-shardd leader processes; the
//	                                         delegated addrs entries become "-")
//	leader_ranges = 0-64,64-128,...         (half-open node-index range per
//	                                         leader, parallel to leaders)
//	sync_deadline = <duration>              (default 0: strict §3.7 sync)
//	sync_quorum   = <int> | auto            (default 0: all nodes; auto derives
//	                                         the quorum from the live open-
//	                                         breaker fraction via the adaptive
//	                                         controller, Env.Adaptive)
//
// Per-node fetches run concurrently under a bounded worker pool (fanout),
// optionally partitioned into shards each running its own pool, but
// results are merged into the synchronization state in node-index order,
// so publish order and the strict/degraded sync semantics are identical to
// a serial sweep whatever the shard count. In rpc mode each node pulls its
// hadoop_log.stream frames over its own managed connection; the resilience
// knobs reconnect_backoff, call_timeout, breaker_threshold, and
// breaker_cooldown tune those connections, each of which keeps its own
// breaker state regardless of fanout.
type hadoopLogModule struct {
	env     *Env
	id      string
	kind    hadooplog.Kind
	nodes   []string
	sources []LogSource
	clients []Streamer // rpc mode: parallel to nodes; nil otherwise
	outs    []*core.OutputPort
	fanout  int
	sharder *shardSweeper
	hier    *leaderSet // delegated ranges (leaders =); nil without delegation

	// fan-out scratch, indexed by node; merged serially in node order.
	fetched [][]hadooplog.StateVector
	errs    []error

	syncDeadline time.Duration // 0 = strict: wait for every node
	syncQuorum   int           // minimum reporters for a partial publish
	quorumAuto   bool          // sync_quorum = auto: resolve via env.Adaptive

	pending []map[int64][]float64 // per node: unix-second -> counts
	maxSeen []int64               // per node: newest fetched second
	// nextEmit is the next second to resolve (0 = unset). Atomic because it
	// doubles as the replay watermark, read by the state snapshotter beside
	// a running engine; all writes stay on the engine goroutine.
	nextEmit     atomic.Int64
	dropped      uint64   // timestamps dropped by the sync rule
	partial      uint64   // timestamps published without all nodes
	missing      []uint64 // per node: resolved seconds it missed
	statesPerVec int

	// Telemetry mirrors of the sync counters above (nil without
	// Env.Metrics; nil-safe), incremented at the same points so a scrape
	// matches the SyncReporter surface.
	mPartial *telemetry.Counter
	mDropped *telemetry.Counter
	mMissing []*telemetry.Counter // parallel to nodes
}

func (m *hadoopLogModule) Init(ctx *core.InitContext) error {
	m.id = ctx.ID()
	cfg := ctx.Config()
	switch cfg.StringParam("kind", "") {
	case "tasktracker":
		m.kind = hadooplog.KindTaskTracker
	case "datanode":
		m.kind = hadooplog.KindDataNode
	case "":
		return errMissingParam("hadoop_log", "kind")
	default:
		return fmt.Errorf("hadoop_log: unknown kind %q", cfg.StringParam("kind", ""))
	}
	m.statesPerVec = hadooplog.MetricDims(m.kind)

	nodesParam := cfg.StringParam("nodes", "")
	if nodesParam == "" {
		return errMissingParam("hadoop_log", "nodes")
	}
	m.nodes = splitList(nodesParam)
	if len(m.nodes) == 0 {
		return fmt.Errorf("hadoop_log: empty node list")
	}

	period, err := cfg.DurationParam("period", time.Second)
	if err != nil {
		return err
	}
	if m.fanout, err = cfg.FanoutParam(); err != nil {
		return err
	}
	sp, err := cfg.ShardParams()
	if err != nil {
		return err
	}
	rp, err := cfg.ResilienceParams()
	if err != nil {
		return err
	}
	m.syncDeadline = rp.SyncDeadline
	m.syncQuorum = rp.SyncQuorum
	m.quorumAuto = rp.SyncQuorumAuto
	if m.syncQuorum == 0 || m.syncQuorum > len(m.nodes) {
		m.syncQuorum = len(m.nodes) // default (and auto baseline): strict
	}

	mode := cfg.StringParam("mode", "local")
	leaderAddrs, leaderRanges, err := parseHierParams(cfg, "hadoop_log", mode, len(m.nodes))
	if err != nil {
		return err
	}
	switch mode {
	case "local":
		for _, n := range m.nodes {
			var buf *hadooplog.Buffer
			var ok bool
			if m.kind == hadooplog.KindTaskTracker {
				buf, ok = m.env.TTLogs[n]
			} else {
				buf, ok = m.env.DNLogs[n]
			}
			if !ok {
				return fmt.Errorf("hadoop_log: no %s log registered for node %q", m.kind, n)
			}
			m.sources = append(m.sources, NewBufferLogSource(m.kind, buf))
		}
	case "rpc":
		addrsParam := cfg.StringParam("addrs", "")
		if addrsParam == "" {
			return errMissingParam("hadoop_log", "addrs")
		}
		addrs := splitList(addrsParam)
		if len(addrs) != len(m.nodes) {
			return fmt.Errorf("hadoop_log: %d addrs for %d nodes", len(addrs), len(m.nodes))
		}
		delegated := markDelegated(len(m.nodes), leaderRanges)
		for i, addr := range addrs {
			if delegated != nil && delegated[i] {
				// The leader owns this node's daemon connection ("-"
				// placeholder; a real address is tolerated).
				m.clients = append(m.clients, nil)
				m.sources = append(m.sources, nil)
				continue
			}
			if addr == "-" {
				return fmt.Errorf("hadoop_log: addr %q for undelegated node %s", addr, m.nodes[i])
			}
			client, err := m.env.dial(addr, "asdf-hadoop-log", rp)
			if err != nil {
				return fmt.Errorf("hadoop_log[%s]: dial %s: %w", m.nodes[i], addr, err)
			}
			m.clients = append(m.clients, client)
			src, err := NewColumnarLogSource(client, m.nodes[i], m.kind)
			if err != nil {
				return fmt.Errorf("hadoop_log[%s]: %w", m.nodes[i], err)
			}
			m.sources = append(m.sources, src)
		}
		if len(leaderAddrs) > 0 {
			m.hier, err = newLeaderSet(m.env, ctx.ID(), m.nodes, leaderAddrs, leaderRanges,
				rp, hierarchy.MethodLogStream, m.statesPerVec)
			if err != nil {
				return fmt.Errorf("hadoop_log: %w", err)
			}
		}
	default:
		return fmt.Errorf("hadoop_log: unknown mode %q", mode)
	}

	metric := strings.Join(hadooplog.MetricNamesFor(m.kind), ",")
	for _, n := range m.nodes {
		out, err := ctx.NewOutput(n, core.Origin{
			Node:   n,
			Source: "hadoop_log_" + m.kind.String(),
			Metric: metric,
		})
		if err != nil {
			return err
		}
		m.outs = append(m.outs, out)
	}
	m.pending = make([]map[int64][]float64, len(m.nodes))
	m.maxSeen = make([]int64, len(m.nodes))
	m.missing = make([]uint64, len(m.nodes))
	for i := range m.pending {
		m.pending[i] = make(map[int64][]float64)
	}
	if reg := m.env.Metrics; reg != nil {
		il := telemetry.L("instance", ctx.ID())
		m.mPartial = reg.Counter("asdf_sync_partial_timestamps_total",
			"Timestamps published in degraded mode, without data from every node.", il)
		m.mDropped = reg.Counter("asdf_sync_dropped_timestamps_total",
			"Timestamps discarded below the sync quorum.", il)
		m.mMissing = make([]*telemetry.Counter, len(m.nodes))
		for i, n := range m.nodes {
			m.mMissing[i] = reg.Counter("asdf_sync_missing_seconds_total",
				"Resolved seconds that lacked this node's data.", il, telemetry.L("node", n))
		}
	}
	m.fetched = make([][]hadooplog.StateVector, len(m.nodes))
	m.errs = make([]error, len(m.nodes))
	m.sharder = newShardSweeper(m.env, ctx.ID(), len(m.nodes), sp, m.fanout)
	return ctx.SchedulePeriodic(period)
}

func (m *hadoopLogModule) Run(ctx *core.RunContext) error {
	now := ctx.Now
	if now.IsZero() {
		now = m.env.now()
	}
	// Fetch every node concurrently (partitioned across shards when
	// configured); merge serially by node index below so the sync state
	// (and therefore publish order) matches a serial sweep. Delegated
	// ranges fetch from their leaders in parallel with the direct sweep;
	// the paths write disjoint node indexes.
	var hierWG sync.WaitGroup
	if m.hier != nil {
		hierWG.Add(1)
		go func() {
			defer hierWG.Done()
			m.hier.sweepLog(m.fetched, m.errs)
		}()
	}
	m.sharder.sweep(func(i int) error {
		if m.sources[i] == nil {
			return nil // delegated to a leader
		}
		m.fetched[i], m.errs[i] = m.sources[i].Fetch(now)
		return m.errs[i]
	})
	hierWG.Wait()
	if m.clients != nil || m.hier != nil {
		open, total := countBreakers(m.clients)
		if m.hier != nil {
			ho, ht := countBreakers(m.hier.clients())
			open, total = open+ho, total+ht
		}
		m.env.Adaptive.ObserveBreakers(m.id, open, total)
	}
	var firstErr error
	ne := m.nextEmit.Load()
	for i := range m.sources {
		vecs, err := m.fetched[i], m.errs[i]
		m.fetched[i] = nil
		if err != nil {
			// One unreachable node must not stop collection from the rest.
			if firstErr == nil {
				firstErr = fmt.Errorf("hadoop_log[%s]: %w", m.nodes[i], err)
			}
			continue
		}
		for _, v := range vecs {
			sec := v.Time.Unix()
			if ne != 0 && sec < ne {
				// Already resolved: a restarted daemon replays its log
				// from the start (and a restarted control node resumes at
				// its persisted watermark); re-served history must not
				// rewind the emit cursor or double-publish.
				continue
			}
			m.pending[i][sec] = v.Counts
			if sec > m.maxSeen[i] {
				m.maxSeen[i] = sec
			}
			if ne == 0 || sec < ne {
				ne = sec
				m.nextEmit.Store(sec)
			}
		}
	}
	m.emitSynchronized(now)
	return firstErr
}

// ReplayWatermark reports the newest resolved second (the second before the
// emit cursor); ok is false before the first resolution. Part of the
// crash-safe state surface (internal/state).
func (m *hadoopLogModule) ReplayWatermark() (time.Time, bool) {
	ne := m.nextEmit.Load()
	if ne == 0 {
		return time.Time{}, false
	}
	return time.Unix(ne-1, 0).UTC(), true
}

// RestoreReplayWatermark arms the replay guard after a restart: the emit
// cursor resumes just past t, so seconds a previous life already published
// are refused even when the daemons re-serve them.
func (m *hadoopLogModule) RestoreReplayWatermark(t time.Time) {
	m.nextEmit.Store(t.Unix() + 1)
}

// ExportBreakerSnapshots snapshots per-node breaker state — leader
// connections included — for persistence (nil in local mode or with an
// unsupervised custom dialer).
func (m *hadoopLogModule) ExportBreakerSnapshots() map[string]rpc.BreakerSnapshot {
	out := exportBreakers(m.clients)
	if m.hier != nil {
		out = mergeBreakerSnaps(out, exportBreakers(m.hier.clients()))
	}
	return out
}

// ImportBreakerSnapshots restores persisted breaker state, staggering
// re-probes of non-closed breakers through plan.
func (m *hadoopLogModule) ImportBreakerSnapshots(snaps map[string]rpc.BreakerSnapshot, plan *rpc.ProbePlanner) int {
	n := importBreakers(m.clients, snaps, plan)
	if m.hier != nil {
		n += importBreakers(m.hier.clients(), snaps, plan)
	}
	return n
}

// emitSynchronized resolves pending seconds in order. A second is resolved
// when it is *final*: every node has data for it (complete), or every node
// has revealed newer data (the §3.7 strict rule: it will never complete),
// or it is older than the straggler deadline (degraded mode). Complete
// seconds are published on every node; incomplete-but-final seconds are
// published partially when at least syncQuorum nodes reported them, and
// dropped otherwise. Resolution stops at the first non-final second so
// samples always flow downstream in timestamp order.
func (m *hadoopLogModule) emitSynchronized(now time.Time) {
	ne := m.nextEmit.Load()
	if ne == 0 {
		return
	}
	quorum := m.syncQuorum
	if m.quorumAuto {
		// sync_quorum = auto: the adaptive controller derives the quorum
		// from this instance's live open-breaker count (strict while the
		// controller is relaxed or absent). A leader breaker counts once,
		// even though it gates a whole range — deliberately conservative.
		open, _ := countBreakers(m.clients)
		if m.hier != nil {
			ho, _ := countBreakers(m.hier.clients())
			open += ho
		}
		quorum = m.env.Adaptive.EffectiveQuorum(m.id, len(m.nodes), open)
	}
	// frontier: newest second every node has reached (-1 while some node
	// has revealed nothing). newest: newest second any node has reached.
	frontier, newest := int64(-1), int64(0)
	for _, s := range m.maxSeen {
		if s > newest {
			newest = s
		}
		if frontier == -1 || s < frontier {
			frontier = s
		}
	}
	// overdueSec: seconds at or below this have passed the straggler
	// deadline (-1 disables; strict mode waits for the frontier alone).
	overdueSec := int64(-1)
	if m.syncDeadline > 0 {
		overdueSec = now.Add(-m.syncDeadline).Unix()
	}
	top := frontier
	if overdueSec > top {
		top = overdueSec
	}
	if top > newest {
		top = newest // never resolve ahead of all data
	}

	for sec := ne; sec <= top; sec++ {
		have := 0
		for i := range m.pending {
			if _, ok := m.pending[i][sec]; ok {
				have++
			}
		}
		complete := have == len(m.nodes)
		final := complete ||
			(frontier > 0 && sec <= frontier) || // every node reached it: it will never grow
			(overdueSec >= 0 && sec <= overdueSec) // straggler deadline expired
		if !final {
			break // must keep waiting; later seconds stay queued too
		}
		emit := complete || have >= quorum
		t := time.Unix(sec, 0).UTC()
		for i := range m.pending {
			counts, ok := m.pending[i][sec]
			if !ok {
				m.missing[i]++
				if m.mMissing != nil {
					m.mMissing[i].Inc()
				}
				continue
			}
			if emit {
				m.outs[i].Publish(core.Sample{Time: t, Values: counts})
			}
			delete(m.pending[i], sec)
		}
		switch {
		case complete:
		case emit:
			m.partial++
			m.mPartial.Inc()
		default:
			m.dropped++
			m.mDropped.Inc()
		}
		m.nextEmit.Store(sec + 1)
	}
}

// DroppedTimestamps reports how many seconds were discarded because fewer
// than the quorum of nodes produced data for them.
func (m *hadoopLogModule) DroppedTimestamps() uint64 { return m.dropped }

// PartialTimestamps reports how many seconds were published in degraded
// mode, i.e. without data from every node.
func (m *hadoopLogModule) PartialTimestamps() uint64 { return m.partial }

// MissingByNode reports, per node, how many resolved seconds lacked that
// node's data — the per-sample visibility downstream analyses use to
// account for partial vectors.
func (m *hadoopLogModule) MissingByNode() map[string]uint64 {
	out := make(map[string]uint64, len(m.nodes))
	for i, n := range m.nodes {
		out[n] = m.missing[i]
	}
	return out
}

// ClientHealths reports per-node connection health in rpc mode (nil in
// local mode or with an unsupervised custom dialer), keyed by node name;
// leader connections appear as "leader:<addr>" rows.
func (m *hadoopLogModule) ClientHealths() map[string]rpc.Health {
	if m.clients == nil && m.hier == nil {
		return nil
	}
	out := make(map[string]rpc.Health, len(m.clients))
	for i, c := range m.clients {
		if h, ok := sourceHealth(c); ok {
			out[m.nodes[i]] = h
		}
	}
	if m.hier != nil {
		m.hier.healths(out)
	}
	return out
}

// ShardStatuses reports per-shard sweep accounting (with per-shard open
// breaker counts in rpc mode); nil when the instance runs a single shard.
func (m *hadoopLogModule) ShardStatuses() []ShardStatus {
	return m.sharder.statusesWithBreakers(m.clients)
}

// LeaderStatuses reports per-leader delegation accounting; nil without
// delegated ranges.
func (m *hadoopLogModule) LeaderStatuses() []LeaderStatus {
	if m.hier == nil {
		return nil
	}
	return m.hier.statuses()
}

var _ core.Module = (*hadoopLogModule)(nil)
