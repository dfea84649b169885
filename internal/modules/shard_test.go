package modules

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asdf-project/asdf/internal/config"
	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
)

func TestPlanShards(t *testing.T) {
	cases := []struct {
		n, count int
		want     []shardRange
	}{
		{0, 4, nil},
		{5, 0, []shardRange{{0, 5}}},
		{5, 1, []shardRange{{0, 5}}},
		{6, 3, []shardRange{{0, 2}, {2, 4}, {4, 6}}},
		{7, 3, []shardRange{{0, 2}, {2, 4}, {4, 7}}},
		{3, 8, []shardRange{{0, 1}, {1, 2}, {2, 3}}}, // capped: no empty shard
	}
	for _, tc := range cases {
		got := planShards(tc.n, tc.count)
		if len(got) != len(tc.want) {
			t.Errorf("planShards(%d, %d) = %v, want %v", tc.n, tc.count, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("planShards(%d, %d)[%d] = %v, want %v", tc.n, tc.count, i, got[i], tc.want[i])
			}
		}
	}
	// Property: for any n/count, ranges are contiguous, non-empty, cover
	// [0, n), and sizes differ by at most one.
	for n := 1; n <= 40; n++ {
		for count := 1; count <= 12; count++ {
			ranges := planShards(n, count)
			prev, minSz, maxSz := 0, n+1, 0
			for _, r := range ranges {
				if r.start != prev || r.end <= r.start {
					t.Fatalf("planShards(%d, %d): bad range %v after %d", n, count, r, prev)
				}
				if sz := r.end - r.start; sz < minSz {
					minSz = sz
				} else if sz > maxSz {
					maxSz = sz
				}
				if r.end-r.start > maxSz {
					maxSz = r.end - r.start
				}
				prev = r.end
			}
			if prev != n {
				t.Fatalf("planShards(%d, %d): covers [0, %d)", n, count, prev)
			}
			if maxSz-minSz > 1 && minSz <= n {
				t.Fatalf("planShards(%d, %d): uneven sizes min=%d max=%d", n, count, minSz, maxSz)
			}
		}
	}
}

// shardedBlackboxConfig routes one multi-node sadc instance (the sharded
// collector under test) into the blackbox analysis pipeline.
func shardedBlackboxConfig(nodes []string, shards int) string {
	sigma, centroids := inlineKNNModel()
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\nshards = %d\n\n",
		strings.Join(nodes, ","), shards)
	for i, n := range nodes {
		fmt.Fprintf(&b, "[knn]\nid = onenn%d\nsigma = %s\ncentroids = %s\ninput[in] = cluster.%s\n\n",
			i, sigma, centroids, n)
		fmt.Fprintf(&b, "[ibuffer]\nid = buf%d\nsize = 10\ninput[input] = onenn%d.output0\n\n", i, i)
	}
	b.WriteString("[analysis_bb]\nid = bb\nthreshold = 0.5\nwindow = 20\nslide = 5\nstates = 2\n")
	for i := range nodes {
		fmt.Fprintf(&b, "input[l%d] = @buf%d\n", i, i)
	}
	b.WriteString("\n[print]\nid = BlackBoxAlarm\nlabel = BB\nonly_nonzero = false\ninput[a] = @bb\n")
	return b.String()
}

// shardedWhiteboxConfig runs the synchronizing hadoop_log collector with
// the given shard count; shard_fanout = 1 additionally forces each shard's
// pool serial, the most adversarial interleaving for the sync state.
func shardedWhiteboxConfig(nodes []string, shards int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[hadoop_log]\nid = hl_tt\nkind = tasktracker\nnodes = %s\nperiod = 1\nshards = %d\nshard_fanout = 1\n\n",
		strings.Join(nodes, ","), shards)
	fmt.Fprintf(&b, "[analysis_wb]\nid = wb\nk = 2\nwindow = 20\nslide = 5\n")
	for i := range nodes {
		fmt.Fprintf(&b, "input[s%d] = hl_tt.%s\n", i, nodes[i])
	}
	b.WriteString("\n[print]\nid = TaskTrackerAlarm\nlabel = WB\nonly_nonzero = false\ninput[a] = @wb\n")
	return b.String()
}

// shardedCSVConfig logs every node's raw sadc vector to CSV — the
// strictest byte-level view of the merged collection output.
func shardedCSVConfig(nodes []string, shards int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\nperiod = 1\nshards = %d\n\n",
		strings.Join(nodes, ","), shards)
	b.WriteString("[csv]\nid = log\npath = %CSVPATH%\n")
	for i, n := range nodes {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	return b.String()
}

// runShardedCase drives one configuration over an identically seeded
// simulated cluster (fault injected mid-run, as in the wavefront
// equivalence tests) and returns every sink byte it produced.
func runShardedCase(t *testing.T, build func([]string, int) string, slaves int, seed int64, shards int) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	var alarms bytes.Buffer
	env.AlarmWriter = &alarms

	names := make([]string, slaves)
	for i, n := range c.Slaves() {
		names[i] = n.Name
	}
	cfgText := build(names, shards)
	csvPath := ""
	if strings.Contains(cfgText, "%CSVPATH%") {
		csvPath = filepath.Join(t.TempDir(), "out.csv")
		cfgText = strings.ReplaceAll(cfgText, "%CSVPATH%", csvPath)
	}
	e := mustEngine(t, env, cfgText)
	runSim(t, c, e, 45)
	if err := c.InjectFault(1, hadoopsim.FaultCPUHog); err != nil {
		t.Fatal(err)
	}
	runSim(t, c, e, 45)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}

	out := alarms.Bytes()
	if csvPath != "" {
		data, err := os.ReadFile(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data...)
	}
	return out
}

// TestShardedMatchesSerialSinkOutput asserts a sharded collection sweep
// produces byte-identical sink output to the single-shard sweep on the
// example pipeline shapes: the shards partition concurrency, not
// semantics, because partials are merged in node-index order.
func TestShardedMatchesSerialSinkOutput(t *testing.T) {
	cases := []struct {
		name   string
		build  func([]string, int) string
		slaves int
		seed   int64
	}{
		{"blackbox", shardedBlackboxConfig, 8, 611},
		{"whitebox-sync", shardedWhiteboxConfig, 8, 622},
		{"raw-csv", shardedCSVConfig, 6, 633},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := runShardedCase(t, tc.build, tc.slaves, tc.seed, 1)
			if len(serial) == 0 {
				t.Fatal("serial run produced no sink output; the comparison would be vacuous")
			}
			for _, shards := range []int{2, 8} {
				sharded := runShardedCase(t, tc.build, tc.slaves, tc.seed, shards)
				if !bytes.Equal(serial, sharded) {
					t.Errorf("shards=%d sink output differs from serial\nserial:  %d bytes\nsharded: %d bytes",
						shards, len(serial), len(sharded))
				}
			}
		})
	}
}

// TestShardAllNodesFailed kills every daemon of one shard: the other
// shards keep collecting, degraded sync publishes partial timestamps at
// quorum, and the per-shard status rows single out the dead shard (fetch
// errors and open breakers).
func TestShardAllNodesFailed(t *testing.T) {
	const slaves = 6
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, 818))
	if err != nil {
		t.Fatal(err)
	}
	var servers []*rpc.Server
	var names, addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceHadoopLog)
		RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
	}()

	env := NewEnv()
	env.Clock = c.Now
	cfgText := fmt.Sprintf(`
[hadoop_log]
id = hl
kind = tasktracker
mode = rpc
nodes = %s
addrs = %s
period = 1
shards = 3
sync_deadline = 2
sync_quorum = 4
breaker_threshold = 1
breaker_cooldown = 3600

[print]
id = p
only_nonzero = false
input[x] = @hl
`, strings.Join(names, ","), strings.Join(addrs, ","))
	cfg, err := config.ParseString(cfgText)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(NewRegistry(env), cfg,
		core.WithErrorHandler(func(string, error) {}))
	if err != nil {
		t.Fatal(err)
	}
	runSim(t, c, e, 10)

	// Shard 2 is nodes[4:6]: kill both of its daemons.
	_ = servers[4].Close()
	_ = servers[5].Close()
	runSim(t, c, e, 20)

	mod, ok := e.ModuleOf("hl")
	if !ok {
		t.Fatal("module hl not found")
	}
	hl := mod.(*hadoopLogModule)
	sts := hl.ShardStatuses()
	if len(sts) != 3 {
		t.Fatalf("ShardStatuses = %d rows, want 3", len(sts))
	}
	for i, st := range sts {
		if st.Nodes != 2 || st.Shard != i {
			t.Errorf("shard %d: unexpected shape %+v", i, st)
		}
		if st.Sweeps == 0 {
			t.Errorf("shard %d: no sweeps recorded", i)
		}
	}
	if sts[0].Errors != 0 || sts[1].Errors != 0 {
		t.Errorf("healthy shards accumulated errors: %+v, %+v", sts[0], sts[1])
	}
	if sts[2].Errors == 0 || sts[2].LastErrors != 2 {
		t.Errorf("dead shard accounting: %+v, want 2 failures per sweep", sts[2])
	}
	if sts[2].OpenBreakers != 2 || sts[0].OpenBreakers != 0 {
		t.Errorf("open breakers: shard2=%d shard0=%d, want 2 and 0",
			sts[2].OpenBreakers, sts[0].OpenBreakers)
	}

	// Degraded sync rode out the dead shard: partial publishes at quorum 4,
	// with the missing seconds charged to the dead shard's nodes.
	if hl.PartialTimestamps() == 0 {
		t.Error("no partial timestamps despite a dead shard and a sync deadline")
	}
	missing := hl.MissingByNode()
	if missing[names[4]] == 0 || missing[names[5]] == 0 {
		t.Errorf("missing-by-node does not charge the dead shard: %v", missing)
	}
	if missing[names[0]] != 0 {
		t.Errorf("healthy node charged with missing seconds: %v", missing)
	}

	// The status surface carries the same rows.
	rep := CollectStatus(e, c.Now())
	if len(rep.Shards["hl"]) != 3 {
		t.Errorf("StatusReport.Shards[hl] = %v, want 3 rows", rep.Shards["hl"])
	}
	if rep.Healthy {
		t.Error("report healthy despite open breakers")
	}
}

// TestSingleShardStatusesNil pins the compatibility contract: a collector
// that does not opt into sharding contributes no shard rows to /status.
func TestSingleShardStatusesNil(t *testing.T) {
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, 919))
	if err != nil {
		t.Fatal(err)
	}
	env := simEnv(c)
	names := []string{c.Slaves()[0].Name, c.Slaves()[1].Name}
	e := mustEngine(t, env, fmt.Sprintf(
		"[sadc]\nid = cluster\nnodes = %s\nperiod = 1\n", strings.Join(names, ",")))
	runSim(t, c, e, 3)
	mod, _ := e.ModuleOf("cluster")
	if sts := mod.(*sadcModule).ShardStatuses(); sts != nil {
		t.Errorf("single-shard ShardStatuses = %v, want nil", sts)
	}
	if rep := CollectStatus(e, c.Now()); rep.Shards != nil {
		t.Errorf("StatusReport.Shards = %v, want empty", rep.Shards)
	}
}
