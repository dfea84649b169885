package modules

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/asdf-project/asdf/internal/hadoopsim"
	"github.com/asdf-project/asdf/internal/rpc"
)

// wireCase selects how the fleet is collected for one equivalence run:
// in process (mode = local, the reference every rpc run must match byte for
// byte) or pulled from one loopback daemon per node, optionally sharded.
type wireCase struct {
	local  bool
	shards int
}

func (wc wireCase) params() string {
	if wc.shards > 1 {
		return fmt.Sprintf("shards = %d\n", wc.shards)
	}
	return ""
}

// collectionLines renders the mode line(s) of a multi-node collection
// instance: nothing for local mode, or mode = rpc plus the daemon addresses
// of one server per node, set up by serve.
func (wc wireCase) collectionLines(t *testing.T, c *hadoopsim.Cluster, service string, serve func(*rpc.Server, *hadoopsim.Node)) string {
	t.Helper()
	if wc.local {
		return ""
	}
	var addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(service)
		serve(srv, n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, addr.String())
	}
	return fmt.Sprintf("mode = rpc\naddrs = %s\n", strings.Join(addrs, ","))
}

// env is the control node's environment for a case: the simulated
// cluster's providers for local mode, or just its clock for rpc mode.
func (wc wireCase) env(c *hadoopsim.Cluster) *Env {
	if wc.local {
		return simEnv(c)
	}
	env := NewEnv()
	env.Clock = c.Now
	return env
}

func slaveNames(c *hadoopsim.Cluster) []string {
	var names []string
	for _, n := range c.Slaves() {
		names = append(names, n.Name)
	}
	return names
}

// runCSV runs cfgText for 30 ticks over c and returns the CSV sink bytes
// written to csvPath.
func runCSV(t *testing.T, c *hadoopsim.Cluster, env *Env, cfgText, csvPath string) []byte {
	t.Helper()
	e := mustEngine(t, env, cfgText)
	runSim(t, c, e, 30)
	if err := e.Flush(c.Now()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runWireSadcCase runs the multi-node sadc collector with the given
// collection mode and returns the CSV sink bytes.
func runWireSadcCase(t *testing.T, slaves int, seed int64, wc wireCase) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	names := slaveNames(c)
	mode := wc.collectionLines(t, c, ServiceSadc, func(srv *rpc.Server, n *hadoopsim.Node) { RegisterSadcServer(srv, n) })
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[sadc]\nid = cluster\nnodes = %s\n%speriod = 1\n%s\n",
		strings.Join(names, ","), mode, wc.params())
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = cluster.%s\n", i, n)
	}
	return runCSV(t, c, wc.env(c), b.String(), csvPath)
}

// TestColumnarWireMatchesJSONSadc asserts the columnar pull transport —
// sharded or not — logs CSV byte-identical to local in-process collection.
func TestColumnarWireMatchesJSONSadc(t *testing.T) {
	const slaves, seed = 6, 1101
	baseline := runWireSadcCase(t, slaves, seed, wireCase{local: true})
	if len(baseline) == 0 {
		t.Fatal("local baseline produced no CSV output")
	}
	cases := []struct {
		name string
		wc   wireCase
	}{
		{"columnar", wireCase{}},
		{"columnar-sharded", wireCase{shards: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireSadcCase(t, slaves, seed, tc.wc)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from local baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}

// runWireSingleNodeCase runs the single-node sadc form with iface and pid
// extras, locally or over one loopback daemon — the richest stream schema,
// including a permanently absent group (the simulated node has no "lo"
// interface).
func runWireSingleNodeCase(t *testing.T, seed int64, wc wireCase) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(2, seed))
	if err != nil {
		t.Fatal(err)
	}
	n := c.Slaves()[0]
	mode := ""
	if !wc.local {
		srv := rpc.NewServer(ServiceSadc)
		RegisterSadcServer(srv, n)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		mode = "mode = rpc\naddr = " + addr.String() + "\n"
	}
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	cfgText := fmt.Sprintf(`
[sadc]
id = s0
node = %s
%speriod = 1
ifaces = eth0, lo
pids = 3001,3002

[csv]
id = log
path = %s
input[m0] = s0.output0
input[m1] = s0.net_eth0
input[m2] = s0.proc_3001
input[m3] = s0.proc_3002
`, n.Name, mode, csvPath)
	return runCSV(t, c, wc.env(c), cfgText, csvPath)
}

// TestColumnarWireMatchesJSONSingleNode covers the iface/pid metric groups:
// per-group presence (including an interface the node never has) must
// round-trip to the same published vectors as local collection.
func TestColumnarWireMatchesJSONSingleNode(t *testing.T) {
	baseline := runWireSingleNodeCase(t, 1103, wireCase{local: true})
	if len(baseline) == 0 {
		t.Fatal("local baseline produced no CSV output")
	}
	t.Run("pull", func(t *testing.T) {
		got := runWireSingleNodeCase(t, 1103, wireCase{})
		if !bytes.Equal(baseline, got) {
			t.Errorf("sink output differs from local baseline: %d bytes vs %d",
				len(got), len(baseline))
		}
	})
}

// runWireLogCase runs the synchronizing hadoop_log collector with the
// given collection mode and returns the CSV sink bytes.
func runWireLogCase(t *testing.T, slaves int, seed int64, wc wireCase) []byte {
	t.Helper()
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	names := slaveNames(c)
	mode := wc.collectionLines(t, c, ServiceHadoopLog, func(srv *rpc.Server, n *hadoopsim.Node) {
		RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
	})
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	fmt.Fprintf(&b, "[hadoop_log]\nid = hl\nkind = tasktracker\nnodes = %s\n%speriod = 1\n%s\n",
		strings.Join(names, ","), mode, wc.params())
	fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
	for i, n := range names {
		fmt.Fprintf(&b, "input[m%d] = hl.%s\n", i, n)
	}
	return runCSV(t, c, wc.env(c), b.String(), csvPath)
}

// TestColumnarWireMatchesJSONHadoopLog covers the white-box path: the
// columnar vector stream (variable rows per tick, zero on quiet ticks) must
// feed the timestamp synchronizer to output byte-identical to local
// collection.
func TestColumnarWireMatchesJSONHadoopLog(t *testing.T) {
	const slaves, seed = 4, 1104
	baseline := runWireLogCase(t, slaves, seed, wireCase{local: true})
	if len(baseline) == 0 {
		t.Fatal("local baseline produced no CSV output")
	}
	for _, tc := range []struct {
		name string
		wc   wireCase
	}{
		{"columnar", wireCase{}},
		{"columnar-sharded", wireCase{shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runWireLogCase(t, slaves, seed, tc.wc)
			if !bytes.Equal(baseline, got) {
				t.Errorf("sink output differs from local baseline: %d bytes vs %d",
					len(got), len(baseline))
			}
		})
	}
}
