package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The fleet process is this test binary re-executed with fleetEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(fleetEnv) == "1" {
		os.Exit(fleetMain(os.Args[1:], os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// smoke runs one small-fleet benchmark in process and parses its result.
func smoke(t *testing.T, o options) (int, runResult, string) {
	t.Helper()
	o.nodes, o.seconds, o.minTicks, o.setups = 16, 0, smokeTicks, 2
	o.traceOut = t.TempDir() + "/trace.jsonl"
	var out, errOut bytes.Buffer
	code := execute(o, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (%v): %q\nstderr: %s", err, lines[len(lines)-1], errOut.String())
	}
	return code, res, out.String()
}

// smokeTicks gives a 16-node fleet as long as a full run to detect its fault.
const smokeTicks = minTimedTicks

func opts(workload string, seed int64) options {
	o := defaultOptions()
	o.workload, o.seed = workload, seed
	return o
}

// TestSmokeEveryWorkload runs each workload shape on 16 nodes, untraced
// and traced, and checks that every metric BENCHMARK.json names is printed
// with its unit and that the oracle passes.
func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, trace := range []int{0, 1} {
			o := opts(w.Name, 3)
			o.trace = trace
			code, res, out := smoke(t, o)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: exit %d, result %+v\n%s", w.Name, trace, code, res, out)
			}
			want := b.EndToEnd
			if trace == 1 {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestOracleCatchesCorruptRow flips one verdict row of the measured run:
// the comparison with the reference must count it and the command fail.
func TestOracleCatchesCorruptRow(t *testing.T) {
	for _, w := range []string{"fleet-deadrange", "analysis-local"} {
		o := opts(w, 3)
		o.corruptRow = 5
		code, res, out := smoke(t, o)
		if code == 0 || res.Correct || res.Failed < 1 {
			t.Fatalf("%s: corrupted row not caught: exit %d, result %+v\n%s", w, code, res, out)
		}
	}
}

// TestFleetStoppedAfterExit checks that every fleet process a run starts,
// and every daemon port it listened on, is gone when the run returns —
// after a passing run and after a failing one.
func TestFleetStoppedAfterExit(t *testing.T) {
	failing := opts("fleet-deadrange", 4)
	failing.corruptRow = 0
	for _, o := range []options{opts("fleet-deadrange", 4), failing} {
		fleets.all = nil
		smoke(t, o)
		if len(fleets.all) != 2 {
			t.Fatalf("%s: %d fleets started, want one per set-up", o.workload, len(fleets.all))
		}
		for _, f := range fleets.all {
			pid := f.cmd.Process.Pid
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("%s: fleet pid %d still exists (kill 0: %v)", o.workload, pid, err)
			}
			for _, a := range append(f.ready.Sadc, f.ready.Hlog...) {
				if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
					c.Close()
					t.Errorf("%s: daemon port %s still accepts connections", o.workload, a)
				}
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite envelope.json, running each detection record at full size")

// TestEnvelopeFileCurrent keeps the committed resource envelope in step
// with the workloads and with the settings the program's defaults resolve
// to. With -update it rewrites envelope.json, detection records included.
func TestEnvelopeFileCurrent(t *testing.T) {
	m, err := trainModel(t.TempDir(), defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := envelope(m)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		got.Detection = nil
		for _, w := range workloads {
			for _, seed := range []int64{defaultSeed, heldOutSeed} {
				o := opts(w.Name, seed)
				o.seconds, o.setups, o.traceOut = 0, 1, t.TempDir()+"/trace.jsonl"
				res, err := measure(w, o, os.Stderr)
				if err != nil {
					t.Fatal(err)
				}
				got.Detection = append(got.Detection, detectionRecord{Workload: w.Name, Seed: seed, detection: res.detected})
			}
		}
		out, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile("envelope.json", append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(committed)
	if !bytes.Equal(g, w) {
		t.Errorf("envelope.json is stale; regenerate with go test -run TestEnvelopeFileCurrent -update\n got %s\nwant %s", g, w)
	}
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			if _, ok := committedDetection(w, opts(w.Name, seed)); !ok {
				t.Errorf("envelope.json has no detection record for %s seed %d", w.Name, seed)
			}
		}
	}
}

// TestDetectionSlack checks the detection comparison a full-size run of a
// recorded seed is held to.
func TestDetectionSlack(t *testing.T) {
	want := detection{TTD: 40, FalseAlarms: 200}
	for _, c := range []struct {
		got  detection
		pass bool
	}{
		{detection{TTD: 40, FalseAlarms: 200}, true},
		{detection{TTD: 44, FalseAlarms: 219}, true},
		{detection{TTD: 46, FalseAlarms: 200}, false},
		{detection{TTD: 40, FalseAlarms: 221}, false},
		{detection{TTD: -1, FalseAlarms: 200}, false},
	} {
		if got := detectionClose(c.got, want); got != c.pass {
			t.Errorf("detectionClose(%+v, %+v) = %v, want %v", c.got, want, got, c.pass)
		}
	}
}
