package eval

import "testing"

func TestMeasureTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	rows, err := MeasureTable3(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	want := []string{"hadoop_log_rpcd", "sadc_rpcd", "fpt-core"}
	for i, r := range rows {
		if r.Process != want[i] {
			t.Errorf("row %d = %q, want %q", i, r.Process, want[i])
		}
		if r.CPUPct < 0 {
			t.Errorf("%s CPU%% = %v", r.Process, r.CPUPct)
		}
		// The paper's headline: collection daemons cost well under 1% of a
		// core at 1 Hz. Generous bound to stay robust on slow CI machines.
		if i < 2 && r.CPUPct > 20 {
			t.Errorf("%s CPU%% = %.2f, expected lightweight", r.Process, r.CPUPct)
		}
		if r.MemoryMB < 0 || r.MemoryMB > 500 {
			t.Errorf("%s memory = %.1f MB, implausible", r.Process, r.MemoryMB)
		}
	}
	// Per-node daemons must be cheaper than the whole control-node
	// pipeline (Table 3's shape).
	if rows[0].CPUPct > rows[2].CPUPct || rows[1].CPUPct > rows[2].CPUPct {
		t.Errorf("daemons should cost less than fpt-core: %+v", rows)
	}
}

func TestMeasureTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	rows, err := MeasureTable4(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (3 types + sum)", len(rows))
	}
	names := []string{"sadc-tcp", "hl-dn-tcp", "hl-tt-tcp", "TCP Sum"}
	var sumStatic, sumIter float64
	for i, r := range rows {
		if r.RPCType != names[i] {
			t.Errorf("row %d = %q, want %q", i, r.RPCType, names[i])
		}
		if i < 3 {
			if r.StaticKB <= 0 {
				t.Errorf("%s static = %v, want > 0 (connection setup)", r.RPCType, r.StaticKB)
			}
			if r.PerIterKBs <= 0 {
				t.Errorf("%s per-iter = %v, want > 0", r.RPCType, r.PerIterKBs)
			}
			// Table 4 shape: per-node monitoring traffic is a few kB/s.
			if r.PerIterKBs > 50 {
				t.Errorf("%s per-iter = %.2f kB/s, implausibly heavy", r.RPCType, r.PerIterKBs)
			}
			sumStatic += r.StaticKB
			sumIter += r.PerIterKBs
		}
	}
	if diff := rows[3].StaticKB - sumStatic; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum static %.3f != %.3f", rows[3].StaticKB, sumStatic)
	}
	if diff := rows[3].PerIterKBs - sumIter; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum per-iter %.3f != %.3f", rows[3].PerIterKBs, sumIter)
	}
	// The paper's sadc record outweighs a single log-vector fetch.
	if rows[0].PerIterKBs < rows[1].PerIterKBs/4 {
		t.Errorf("sadc traffic %.2f unexpectedly below hl-dn %.2f", rows[0].PerIterKBs, rows[1].PerIterKBs)
	}
}
