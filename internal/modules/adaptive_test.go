package modules

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/hadooplog"
	"github.com/asdf-project/asdf/internal/rpc"
	"github.com/asdf-project/asdf/internal/telemetry"
)

func TestAdaptiveControllerHysteresis(t *testing.T) {
	var logged []string
	c := NewAdaptiveController(AdaptiveConfig{
		Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
	})

	c.ObserveBreakers("hl", 0, 10)
	if c.Tightened() {
		t.Fatal("tightened with zero open breakers")
	}
	if got := c.DegradePolicy(); got != core.DegradeSkip {
		t.Errorf("relaxed policy = %s, want skip", got)
	}
	if got := c.EffectiveQuorum("hl", 10, 0); got != 10 {
		t.Errorf("relaxed quorum = %d, want strict 10", got)
	}

	// 3/10 = 0.30 >= 0.25: tighten.
	c.ObserveBreakers("hl", 3, 10)
	if !c.Tightened() {
		t.Fatal("did not tighten at 30% open")
	}
	if got := c.DegradePolicy(); got != core.DegradeHold {
		t.Errorf("tightened policy = %s, want hold", got)
	}
	if got := c.EffectiveQuorum("hl", 10, 3); got != 7 {
		t.Errorf("tightened quorum = %d, want nodes-open = 7", got)
	}
	// Floor clamp: 8 open would leave quorum 2, but the floor is
	// ceil(0.5*10) = 5.
	if got := c.EffectiveQuorum("hl", 10, 8); got != 5 {
		t.Errorf("floored quorum = %d, want 5", got)
	}

	// 2/10 = 0.20 sits inside the hysteresis band: stays tightened.
	c.ObserveBreakers("hl", 2, 10)
	if !c.Tightened() {
		t.Fatal("hysteresis band flapped the controller")
	}

	// 1/10 = 0.10 <= 0.10: relax.
	c.ObserveBreakers("hl", 1, 10)
	if c.Tightened() {
		t.Fatal("did not relax at 10% open")
	}
	if got := c.EffectiveQuorum("hl", 10, 1); got != 10 {
		t.Errorf("relaxed quorum = %d, want strict 10", got)
	}

	joined := strings.Join(logged, "\n")
	if !strings.Contains(joined, "tightening") || !strings.Contains(joined, "relaxing") {
		t.Errorf("transitions not logged: %q", joined)
	}
}

// TestAdaptiveControllerAggregatesSources: the open fraction spans every
// observing instance, so one sick collector among many healthy ones is
// diluted.
func TestAdaptiveControllerAggregatesSources(t *testing.T) {
	c := NewAdaptiveController(AdaptiveConfig{})
	c.ObserveBreakers("hl", 3, 10) // alone: 0.30 would tighten...
	if !c.Tightened() {
		t.Fatal("sanity: single source tightens")
	}
	c.ObserveBreakers("cluster", 0, 90) // ...but the fleet is 3/100 = 0.03
	if c.Tightened() {
		t.Error("fleet-wide fraction 0.03 should relax")
	}
}

func TestAdaptiveControllerNilSafe(t *testing.T) {
	var c *AdaptiveController
	c.ObserveBreakers("hl", 5, 5) // must not panic
	if c.Tightened() {
		t.Error("nil controller tightened")
	}
	if got := c.DegradePolicy(); got != core.DegradeSkip {
		t.Errorf("nil policy = %s, want skip", got)
	}
	if got := c.EffectiveQuorum("hl", 4, 4); got != 4 {
		t.Errorf("nil quorum = %d, want strict 4", got)
	}
}

func TestAdaptiveMetricsVisible(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewAdaptiveController(AdaptiveConfig{Metrics: reg})
	c.ObserveBreakers("hl", 3, 10)
	c.EffectiveQuorum("hl", 10, 3)
	c.ObserveBreakers("hl", 0, 10)

	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	scraped, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"asdf_adaptive_open_breaker_fraction":      0,
		"asdf_adaptive_tightened":                  0,
		"asdf_adaptive_transitions_total":          2, // tighten then relax
		`asdf_adaptive_sync_quorum{instance="hl"}`: 7,
	} {
		got, ok := scraped[name]
		if !ok {
			t.Errorf("metric %s not exposed (scrape: %v)", name, scraped)
			continue
		}
		if got != want {
			t.Errorf("metric %s = %v, want %v", name, got, want)
		}
	}
}

// breakerToggleCaller is an unconnected client whose reported breaker state
// the test flips at will — enough to drive countBreakers and the adaptive
// feed without real daemons.
type breakerToggleCaller struct {
	addr string
	open *bool
}

func (c *breakerToggleCaller) Stream(string, any) (rpc.Puller, error) { return nil, nil }
func (c *breakerToggleCaller) Health() rpc.Health {
	h := rpc.Health{Addr: c.addr, State: rpc.BreakerClosed}
	if *c.open {
		h.State = rpc.BreakerOpen
	}
	return h
}

// TestSyncQuorumAutoFollowsController runs the two-node sync harness with
// sync_quorum = auto: while the controller is relaxed the §3.7 strict rule
// holds (a dead node stalls partial publishes; overdue seconds drop), and
// once the instance's open-breaker fraction tightens the controller, the
// quorum relaxes to the reporting nodes and publishes resume degraded.
func TestSyncQuorumAutoFollowsController(t *testing.T) {
	env := NewEnv()
	bufA := hadooplog.NewBuffer(0)
	bufB := hadooplog.NewBuffer(0)
	env.TTLogs["a"] = bufA
	env.TTLogs["b"] = bufB
	env.Adaptive = NewAdaptiveController(AdaptiveConfig{})

	e := mustEngine(t, env, `
[hadoop_log]
id = hl
kind = tasktracker
nodes = a,b
period = 1
sync_deadline = 2
sync_quorum = auto

[print]
id = p
input[x] = @hl
only_nonzero = false
`)
	mod, _ := e.ModuleOf("hl")
	hl := mod.(*hadoopLogModule)
	hl.sources[1] = &gatedSource{inner: hl.sources[1], open: func() bool { return false }}
	// Stand-in supervised clients: node b's breaker state is toggled below.
	bOpen := false
	hl.clients = []Streamer{
		&breakerToggleCaller{addr: "127.0.0.1:9001", open: new(bool)},
		&breakerToggleCaller{addr: "127.0.0.1:9002", open: &bOpen},
	}

	wA := hadooplog.NewWriter(hadooplog.KindTaskTracker, bufA)
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)
	if err := wA.LaunchTask(base, hadooplog.TaskID(1, true, 0, 0)); err != nil {
		t.Fatal(err)
	}
	tick := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if err := e.Tick(base.Add(time.Duration(i) * time.Second)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Phase 1: breakers closed, controller relaxed — auto resolves to the
	// strict quorum, so the dead source only produces drops.
	tick(1, 10)
	if pub := hl.outs[0].Published(); pub != 0 {
		t.Fatalf("relaxed auto quorum published %d partial samples", pub)
	}
	if hl.DroppedTimestamps() == 0 {
		t.Fatal("deadline did not drop overdue seconds under strict auto quorum")
	}

	// Phase 2: node b's breaker opens (1/2 = 0.50 >= 0.25 tightens); the
	// effective quorum drops to the single reporting node and a's seconds
	// flow degraded.
	bOpen = true
	tick(11, 20)
	if !env.Adaptive.Tightened() {
		t.Fatal("controller did not tighten from the module's sweep feed")
	}
	if pub := hl.outs[0].Published(); pub == 0 {
		t.Fatal("tightened auto quorum still stalled the healthy node")
	}
	if hl.PartialTimestamps() == 0 {
		t.Error("degraded publishes not counted as partial")
	}

	// Phase 3: breaker closes again (0.00 <= 0.10 relaxes) — back to
	// strict: partial publishes stop climbing.
	bOpen = false
	tick(21, 22) // let the controller observe the recovery
	if env.Adaptive.Tightened() {
		t.Fatal("controller did not relax after recovery")
	}
	pubBefore, partialBefore := hl.outs[0].Published(), hl.PartialTimestamps()
	tick(23, 30)
	if pub := hl.outs[0].Published(); pub != pubBefore {
		t.Errorf("relaxed auto quorum kept publishing partially: %d -> %d", pubBefore, pub)
	}
	if hl.PartialTimestamps() != partialBefore {
		t.Errorf("partial count climbed after relax: %d -> %d", partialBefore, hl.PartialTimestamps())
	}
}
