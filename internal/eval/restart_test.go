package eval

import (
	"testing"
	"time"

	"github.com/asdf-project/asdf/internal/core"
	"github.com/asdf-project/asdf/internal/telemetry"
)

// TestRestartDrill is the crash-safety acceptance drill: a control node is
// killed without teardown mid-outage and a second one boots from its state
// file. The restored life must resume the quarantine cooldown where it left
// off, re-probe the restored-open breakers on a budgeted stagger, refuse to
// re-publish at or before the persisted watermark, and converge once the
// daemons recover. CI runs this under -race with a counter trace artifact.
func TestRestartDrill(t *testing.T) {
	cfg := DefaultRestartDrillConfig(t.TempDir())
	cfg.TraceWriter = faultTrace(t, "restart-drill")
	metrics := telemetry.NewRegistry()
	cfg.Metrics = metrics

	report, err := RunRestartDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Life 1 died with the sadc victim quarantined and a published watermark.
	if report.QuarantineAtCrash.State != core.SupervisorQuarantined {
		t.Fatalf("at crash, sv state = %s, want quarantined", report.QuarantineAtCrash.State)
	}
	if report.WatermarkAtCrash.IsZero() {
		t.Fatal("life 1 persisted no replay watermark")
	}

	// Boot-time restore accounting.
	rs := report.Restore
	if rs.Restarts != 1 {
		t.Errorf("restarts = %d, want 1", rs.Restarts)
	}
	if !rs.LockReclaimed {
		t.Error("stale dead-PID lock was not reclaimed")
	}
	if rs.SnapshotQuarantined {
		t.Error("intact snapshot was quarantined as corrupt")
	}
	if rs.RestoredSupervisors < 1 {
		t.Errorf("restored supervisors = %d, want >= 1", rs.RestoredSupervisors)
	}
	if rs.RestoredBreakers < uint64(len(cfg.Victims)) {
		t.Errorf("restored breakers = %d, want >= %d", rs.RestoredBreakers, len(cfg.Victims))
	}
	if rs.RestoredWatermarks < 1 {
		t.Errorf("restored watermarks = %d, want >= 1", rs.RestoredWatermarks)
	}

	// The quarantine resumed its cooldown clock: same absolute deadline,
	// not a reset one.
	if report.QuarantineRestored.State != core.SupervisorQuarantined {
		t.Errorf("after restore, sv state = %s, want quarantined", report.QuarantineRestored.State)
	}
	if !report.QuarantineRestored.ReopenAt.Equal(report.QuarantineAtCrash.ReopenAt) {
		t.Errorf("restored ReopenAt = %v, want the pre-crash deadline %v",
			report.QuarantineRestored.ReopenAt, report.QuarantineAtCrash.ReopenAt)
	}
	if !report.WatermarkRestored.Equal(report.WatermarkAtCrash) {
		t.Errorf("restored watermark = %v, want %v", report.WatermarkRestored, report.WatermarkAtCrash)
	}

	// Staggered re-probes: never more dials per tick than the budget, and
	// spread over more than one tick.
	if report.MaxProbesPerTick == 0 {
		t.Error("restarted node never probed the dead daemons")
	}
	if report.MaxProbesPerTick > cfg.ProbeBudget {
		t.Errorf("max probes per tick = %d, exceeds budget %d", report.MaxProbesPerTick, cfg.ProbeBudget)
	}
	if report.ProbeTicks < 2 {
		t.Errorf("probe ticks = %d, want >= 2 (staggered)", report.ProbeTicks)
	}

	// After the daemons revive, the quarantined instance is readmitted.
	if !report.Readmitted {
		t.Errorf("sv not readmitted: final state %s, readmissions %d",
			report.FinalQuarantined.State, report.FinalQuarantined.Readmissions)
	}

	// The combined two-life lineage has no duplicate and no rewound
	// timestamps on any node stream, despite the second life's fresh
	// streams replaying each daemon's full history.
	if report.CSVRows == 0 {
		t.Fatal("no CSV rows published across both lives")
	}
	if report.DuplicateRows != 0 {
		t.Errorf("duplicate rows across restart = %d, want 0", report.DuplicateRows)
	}
	if report.OutOfOrderRows != 0 {
		t.Errorf("out-of-order rows across restart = %d, want 0", report.OutOfOrderRows)
	}
	if report.SurvivorPublishesLife2 == 0 {
		t.Error("restarted node published nothing from surviving daemons")
	}

	// The final status report carries the restart section, and the
	// asdf_state_* series agree with it.
	if report.Status.Restart == nil {
		t.Fatal("status report has no restart section")
	}
	final := *report.Status.Restart
	got := scrape(t, metrics)
	for name, want := range map[string]float64{
		"asdf_state_restarts":                float64(final.Restarts),
		"asdf_state_snapshots_written_total": float64(final.SnapshotsWritten),
		"asdf_state_snapshot_bytes":          float64(final.SnapshotBytes),
		"asdf_state_restored_supervisors":    float64(final.RestoredSupervisors),
		"asdf_state_restored_breakers":       float64(final.RestoredBreakers),
		"asdf_state_restored_watermarks":     float64(final.RestoredWatermarks),
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v (status report value)", name, got[name], want)
		}
	}
	if got["asdf_state_snapshot_write_errors_total"] != 0 {
		t.Errorf("snapshot write errors = %v, want 0", got["asdf_state_snapshot_write_errors_total"])
	}
	if final.LastSnapshotAt.IsZero() || !report.Status.Time.After(final.LastSnapshotAt.Add(-time.Minute)) {
		t.Errorf("implausible last snapshot time %v (status time %v)", final.LastSnapshotAt, report.Status.Time)
	}
}
