package system

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specsimp/internal/network"
	"specsimp/internal/sim"
	"specsimp/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/results.golden from the current simulator")

// goldenRow is one pinned simulation: a named configuration run as a
// single Run call from Start.
type goldenRow struct {
	Name    string
	Cycles  sim.Time
	Results Results
}

// goldenConfig is one configuration of the pinned set.
type goldenConfig struct {
	name   string
	cfg    Config
	cycles sim.Time
}

// faultsConfig is the availability storm/static point: Poisson fault
// storm at 40 faults/s, a 32-entry log that overflows every epoch, and a
// 2000-cycle checkpoint cadence — rollback, log backpressure and
// slow-start all do work.
func faultsConfig() Config {
	cfg := DefaultConfig(DirectorySpec, workload.OLTP)
	cfg.FaultRegime = FaultStorm
	cfg.FaultRate = 40
	cfg.CyclesPerSecond = 1.5e6
	cfg.CheckpointInterval = 2_000
	cfg.SlowStartWindow = 10_000
	cfg.LogBytes = 32 * 72
	cfg.TimeoutCycles = 0
	return cfg
}

// goldenConfigs lists the pinned rows: every kind on the classic path,
// the fault/backpressure point with and without the adaptive cadence,
// the sharded-equivalence base config, and a simplified-network machine
// that deadlocks and recovers through the transaction timeout. Rows
// named "…/tile1" run the windowed schedule on one tile; the rest run
// the classic single-kernel schedule.
func goldenConfigs() []goldenConfig {
	const cycles = 300_000
	var rows []goldenConfig
	for _, k := range []Kind{DirectoryFull, DirectorySpec, SnoopFull, SnoopSpec} {
		rows = append(rows, goldenConfig{k.String(), DefaultConfig(k, workload.OLTP), cycles})
	}
	faults := faultsConfig()
	rows = append(rows, goldenConfig{"faults", faults, cycles})
	adaptive := faults
	adaptive.AdaptiveCheckpoint = true
	rows = append(rows, goldenConfig{"faults-adaptive", adaptive, cycles})
	adaptive.Shards = 1
	rows = append(rows, goldenConfig{"faults-adaptive/tile1", adaptive, cycles})
	base := shardedBase(DirectorySpec, workload.OLTP, 4, 4)
	rows = append(rows, goldenConfig{"sharded-base", base, cycles})
	base.Shards = 1
	rows = append(rows, goldenConfig{"sharded-base/tile1", base, cycles})
	simp := DefaultConfig(DirectorySpec, workload.Hotspot)
	simp.Net = network.SimplifiedConfig(4, 4, 0.8, 2)
	simp.CheckpointInterval = 20_000
	simp.TimeoutCycles = 3 * simp.CheckpointInterval
	simp.SlowStartWindow = 50_000
	rows = append(rows, goldenConfig{"simplified-net", simp, 600_000})
	return rows
}

// TestGoldenResults pins the encoding/json form of Results for a set of
// configurations on both schedules against testdata/results.golden, so a
// change that moves any simulated number — on the classic path, or on
// every tile count at once — fails here. `go test -run GoldenResults
// -update ./internal/system/` rewrites the file; do that only for a
// change meant to alter simulation output.
func TestGoldenResults(t *testing.T) {
	var got []goldenRow
	for _, r := range goldenConfigs() {
		res, err := RunOneChecked(r.cfg, r.cycles)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got = append(got, goldenRow{Name: r.name, Cycles: r.cycles, Results: res})
	}

	// The rows must exercise what they claim, or pinning them proves
	// little about the control paths.
	byName := map[string]Results{}
	for _, r := range got {
		if r.Results.Instructions == 0 {
			t.Errorf("%s: no forward progress", r.Name)
		}
		byName[r.Name] = r.Results
	}
	for _, name := range []string{"faults", "faults-adaptive", "faults-adaptive/tile1"} {
		if r := byName[name]; r.LogStallCycles == 0 || r.Recoveries == 0 {
			t.Errorf("%s: log stalls %d, recoveries %d; want both > 0", name, r.LogStallCycles, r.Recoveries)
		}
	}
	for _, name := range []string{"sharded-base", "sharded-base/tile1"} {
		if r := byName[name]; r.Recoveries == 0 {
			t.Errorf("%s: no recoveries", name)
		}
	}
	if n := byName["simplified-net"].RecoveryReasons["deadlock-timeout"]; n == 0 {
		t.Error("simplified-net: no deadlock-timeout recoveries; the watchdog row is not exercising the watchdog")
	}

	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "results.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run GoldenResults -update ./internal/system/`): %v", err)
	}
	if string(want) != string(data) {
		var old []goldenRow
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatalf("results.golden is unreadable: %v", err)
		}
		for i, r := range got {
			if i >= len(old) || old[i].Name != r.Name {
				t.Errorf("row %d (%s) has no golden counterpart", i, r.Name)
				continue
			}
			a, _ := json.Marshal(old[i])
			b, _ := json.Marshal(r)
			if string(a) != string(b) {
				t.Errorf("%s: results changed\n--- got ---\n%s\n--- want ---\n%s", r.Name, b, a)
			}
		}
		if len(old) != len(got) {
			t.Errorf("golden has %d rows, run produced %d", len(old), len(got))
		}
	}
}
