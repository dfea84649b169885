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

// TestStreamResyncComposesWithReplayGuard proves the crash-safe restart
// path composes with the columnar pull transport: a restarted control
// node's fresh streams resync from the daemon (schema re-send plus a full
// history replay, since server-side stream state lives with the old
// connection), and the restored replay watermark suppresses every second
// the previous life already published. The two lives'
// concatenated CSV must be byte-identical to an uninterrupted run — no
// duplicate rows, no out-of-order rows, no gap.
func TestStreamResyncComposesWithReplayGuard(t *testing.T) {
	const slaves, seed = 4, 1105
	baseline := runWireLogCase(t, slaves, seed, wireCase{})
	if len(baseline) == 0 {
		t.Fatal("uninterrupted baseline produced no CSV output")
	}

	// The interrupted lineage shares one cluster and one daemon fleet: the
	// daemons survive the control node's crash.
	c, err := hadoopsim.NewCluster(hadoopsim.DefaultConfig(slaves, seed))
	if err != nil {
		t.Fatal(err)
	}
	var names, addrs []string
	for _, n := range c.Slaves() {
		srv := rpc.NewServer(ServiceHadoopLog)
		RegisterHadoopLogServer(srv, n.TaskTrackerLog(), n.DataNodeLog(), c.Now)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		names = append(names, n.Name)
		addrs = append(addrs, addr.String())
	}
	env := NewEnv()
	env.Clock = c.Now

	// runLife boots a control node, applies restore (the state manager's
	// boot-time hook), runs 15 ticks, and flushes the sink so the test can
	// read what this life published. The engine is then abandoned without
	// teardown — its streams left dangling like a kill -9's half-dead
	// sockets.
	runLife := func(csvPath string, restore func(*hadoopLogModule)) *hadoopLogModule {
		t.Helper()
		var b strings.Builder
		fmt.Fprintf(&b, "[hadoop_log]\nid = hl\nkind = tasktracker\nnodes = %s\nmode = rpc\naddrs = %s\nperiod = 1\n\n",
			strings.Join(names, ","), strings.Join(addrs, ","))
		fmt.Fprintf(&b, "[csv]\nid = log\npath = %s\n", csvPath)
		for i, n := range names {
			fmt.Fprintf(&b, "input[m%d] = hl.%s\n", i, n)
		}
		e := mustEngine(t, env, b.String())
		mod, _ := e.ModuleOf("hl")
		hl := mod.(*hadoopLogModule)
		if restore != nil {
			restore(hl)
		}
		runSim(t, c, e, 15)
		if err := e.Flush(c.Now()); err != nil {
			t.Fatal(err)
		}
		return hl
	}

	dir := t.TempDir()
	path1 := filepath.Join(dir, "life1.csv")
	hl1 := runLife(path1, nil)
	wm, ok := hl1.ReplayWatermark()
	if !ok {
		t.Fatal("no replay watermark after 15 ticks")
	}

	// Second life: fresh engine, fresh streams (the daemons re-serve
	// their full logs), watermark restored before the first tick — exactly
	// what internal/state's manager does on boot.
	path2 := filepath.Join(dir, "life2.csv")
	hl2 := runLife(path2, func(hl *hadoopLogModule) { hl.RestoreReplayWatermark(wm) })
	if wm2, ok := hl2.ReplayWatermark(); !ok || !wm2.After(wm) {
		t.Fatalf("second life's watermark %v did not advance past %v", wm2, wm)
	}

	life1, err := os.ReadFile(path1)
	if err != nil {
		t.Fatal(err)
	}
	life2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	header := "time,node,source,output,values\n"
	if !bytes.HasPrefix(life2, []byte(header)) {
		t.Fatalf("second life CSV missing header: %q", life2[:40])
	}
	combined := append(append([]byte{}, life1...), life2[len(header):]...)
	if !bytes.Equal(combined, baseline) {
		t.Errorf("interrupted lineage differs from uninterrupted run: %d bytes vs %d",
			len(combined), len(baseline))
	}

	// Belt and suspenders: scan the combined trace for duplicate or
	// out-of-order rows per node stream, independent of the baseline.
	last := make(map[string]string)
	for i, line := range strings.Split(strings.TrimSuffix(string(combined), "\n"), "\n") {
		if i == 0 {
			continue // header
		}
		f := strings.SplitN(line, ",", 5)
		if len(f) != 5 {
			t.Fatalf("malformed row %d: %q", i, line)
		}
		key := f[1] + "/" + f[3]
		// The timestamp format is lexicographically ordered; equality means
		// a duplicate second on one node's stream.
		if prev, ok := last[key]; ok && f[0] <= prev {
			t.Errorf("row %d: %s at %s not after %s (duplicate or out of order)", i, key, f[0], prev)
		}
		last[key] = f[0]
	}

	// Teeth: a third life without the restored watermark re-publishes the
	// resynced history — proving the hazard the replay guard suppresses is
	// real, not an artifact of daemons serving only fresh data.
	path3 := filepath.Join(dir, "life3.csv")
	runLife(path3, nil)
	life3, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	wmStamp := wm.UTC().Format("2006-01-02T15:04:05")
	dup := 0
	for i, line := range strings.Split(strings.TrimSuffix(string(life3), "\n"), "\n") {
		if i == 0 {
			continue
		}
		if ts := strings.SplitN(line, ",", 2)[0]; ts <= wmStamp {
			dup++
		}
	}
	if dup == 0 {
		t.Error("unguarded restart re-published nothing at or before the watermark; the resync hazard this test guards against has vanished — revisit the test")
	}
}
