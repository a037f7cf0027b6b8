package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"specsimp/internal/system"
)

// outDir receives the traced run's span and profile files, relative to
// the repository root the benchmark runs from (git ignores it).
const outDir = ".bench_build/perfbench"

// profileHz samples the Run call more often than runtime/pprof's 100 Hz
// default, so a one-second run still yields enough samples per package.
const profileHz = 500

// cpuPkgs are the packages whose share of the Run call's CPU profile is
// reported: every specsimp/internal package the run executes.
var cpuPkgs = []string{
	"sim", "network", "directory", "snoop", "cache", "safetynet", "core",
	"processor", "workload", "system", "coherence", "mem", "pool", "stats",
}

// span is one traced interval, in nanoseconds since the run began.
// Spans nest: Parent is the enclosing span's ID (0 for the root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. Spans must end in
// the reverse order they began.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

// begin opens a span under the innermost open one and returns the
// function that closes it and reports its duration.
func (t *tracer) begin(name string) func() time.Duration {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, i)
	return func() time.Duration {
		t.spans[i].EndNs = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
		return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
	}
}

// write computes each span's self time (its duration less its
// children's) and writes the spans as JSON.
func (t *tracer) write(path, traceID string) error {
	for i := range t.spans {
		t.spans[i].SelfNs = t.spans[i].EndNs - t.spans[i].StartNs
	}
	for _, sp := range t.spans {
		if sp.Parent > 0 {
			t.spans[sp.Parent-1].SelfNs -= sp.EndNs - sp.StartNs
		}
	}
	b, err := json.MarshalIndent(struct {
		Trace string `json:"trace"`
		Spans []span `json:"spans"`
	}{traceID, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRep is one repetition with every system call in its own span,
// the Run call profiled, and the system's public counters read back.
type tracedRep struct {
	rep
	buildS, startS, resultsS float64
	buildHeapMB              float64
	allocs, gcs, events      uint64
	pending                  int
	profile                  []byte
	layers                   layerConfig
	counts                   map[string]metric
}

func runTraced(tr *tracer, cfg system.Config, w spec) (t tracedRep) {
	defer func() {
		if p := recover(); p != nil {
			t.err = fmt.Errorf("panic: %v", p)
		}
	}()
	debug.FreeOSMemory() // as setUp does
	end := tr.begin("system.BuildChecked")
	s, err := system.BuildChecked(cfg)
	t.buildS = end().Seconds()
	if err != nil {
		t.err = fmt.Errorf("build: %w", err)
		return t
	}
	t.buildHeapMB = liveHeapMB()
	end = tr.begin("System.Start")
	s.Start()
	t.startS = end().Seconds()
	runtime.GC()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	// StartCPUProfile would set 100 Hz; a rate set first wins (the
	// runtime prints a warning to standard error and keeps it).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.err = fmt.Errorf("cpu profile: %w", err)
		return t
	}
	end = tr.begin("System.Run")
	t.res = s.Run(w.cycles)
	t.run = end()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	t.profile = prof.Bytes()
	t.allocs = after.Mallocs - before.Mallocs
	t.gcs = uint64(after.NumGC - before.NumGC)
	t.events = s.K.Executed
	t.pending = s.K.Pending()

	end = tr.begin("System.Results")
	again := s.Results()
	t.resultsS = end().Seconds()
	if !reflect.DeepEqual(again, t.res) {
		t.err = errors.New("System.Results differs from Run's results")
	}
	t.layers = layersOf(s)
	t.counts = countsOf(s, t.res)
	return t
}

// countsOf reads the simulated counts from the packages' public
// accessors. They are exact and repeat for a fixed seed.
func countsOf(s *system.System, r system.Results) map[string]metric {
	frac := func(n uint64) float64 {
		if r.Cycles == 0 {
			return 0
		}
		return float64(n) / float64(r.Cycles)
	}
	var dirTx, snoopTx, ordered uint64
	if s.Dir != nil {
		dirTx = r.Transactions
	} else {
		snoopTx = r.Transactions
		ordered = s.Bus.Ordered()
	}
	return map[string]metric{
		"processor.instructions":   {float64(r.Instructions), "count"},
		"system.ipc":               {r.Perf, "instr/cycle"},
		"directory.transactions":   {float64(dirTx), "count"},
		"snoop.transactions":       {float64(snoopTx), "count"},
		"snoop.ordered_reqs":       {float64(ordered), "count"},
		"network.msgs_sent":        {float64(s.Net.Stats().Sent.Value()), "count"},
		"network.link_util":        {r.MeanLinkUtil, "frac"},
		"safetynet.checkpoints":    {float64(r.Checkpoints), "count"},
		"safetynet.entries_logged": {float64(s.Mgr.EntriesLogged()), "count"},
		"safetynet.overflows":      {float64(r.LogOverflows), "count"},
		"safetynet.log_stall_frac": {frac(r.LogStallCycles), "frac"},
		"core.recoveries":          {float64(r.Recoveries), "count"},
		"core.lost_work_frac":      {frac(r.RollbackDist.Sum), "frac"},
		"core.degraded_frac":       {frac(r.DegradedCycles), "frac"},
		"core.outage_frac":         {frac(r.OutageCycles), "frac"},
	}
}

// tracedRun produces the per-layer metrics. In order, and all checked
// like the timed repetitions:
//
//  1. untraced repetitions for half the budget, as --trace 0 runs them:
//     the reference results and the baseline for tracing overhead;
//  2. one traced repetition: spans around BuildChecked, Start, Run and
//     Results, a CPU profile of Run, allocation and GC counts;
//  3. one repetition that audits the coherence invariants at up to
//     maxAudits evenly spaced checkpoints (System.OnCheckpoint, where
//     the system is quiescent);
//  4. on a tiled workload, one repetition at a single tile, whose
//     results must equal the tiled ones;
//  5. the standalone layer probes (layers.go).
func tracedRun(w spec, seed uint64, budget time.Duration) (report, error) {
	c := &checker{w: w}
	cfg := w.config(seed)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	// A failed check ends the run with the metrics gathered so far.
	failed := func() (report, error) {
		return report{Correct: false, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
	}

	var baseRun []float64
	for _, r := range timedReps(w, seed, time.Now().Add(budget/2), c) {
		baseRun = append(baseRun, r.run.Seconds())
	}
	if len(baseRun) == 0 {
		return failed()
	}

	tr := &tracer{t0: time.Now()}
	endRoot := tr.begin("traced-run")

	endRep := tr.begin("traced-rep")
	t := runTraced(tr, cfg, w)
	endRep()
	if c.check(t.rep) != nil {
		return failed()
	}
	for k, v := range t.counts {
		m[k] = v
	}
	put("system.build_s", t.buildS, "s")
	put("system.start_s", t.startS, "s")
	put("system.run_s", t.run.Seconds(), "s")
	put("system.results_s", t.resultsS, "s")
	put("system.build_heap_mb", t.buildHeapMB, "MB")
	put("system.run_allocs_per_kcycle", float64(t.allocs)/(float64(w.cycles)/1e3), "allocs/kcycle")
	put("system.run_gc_cycles", float64(t.gcs), "count")
	put("bench.trace_overhead_frac", t.run.Seconds()/median(baseRun)-1, "frac")

	shares, err := cpuShares(t.profile)
	if err != nil {
		return report{}, err
	}
	for _, p := range cpuPkgs {
		put(p+".cpu_frac", shares[p], "frac")
	}
	put("runtime.other_frac", shares[otherPkg], "frac")

	endAudit := tr.begin("audit-rep")
	stride := (int(t.res.Checkpoints) + maxAudits - 1) / maxAudits
	audits, err := auditRep(cfg, w, max(stride, 1), c)
	endAudit()
	if err != nil {
		return failed()
	}
	put("system.audits", float64(audits), "count")

	// On the tiled path System.K is tile 0's kernel alone, so the event
	// count and pending depth come from the single-tile repetition.
	events, pending, speedup := t.events, t.pending, 1.0
	if w.tiles() > 1 {
		endOne := tr.begin("one-tile-rep")
		one := cfg
		one.Shards = 1
		var s1 *system.System
		r := runRep(one, w.cycles, func(s *system.System) { s1 = s })
		endOne()
		if c.check(r) != nil {
			return failed()
		}
		events, pending = s1.K.Executed, s1.K.Pending()
		speedup = r.run.Seconds() / median(baseRun)
	}
	put("sim.events", float64(events), "count")
	put("system.run_ns_per_event", float64(t.run.Nanoseconds())/float64(events), "ns")
	put("sim.tile_speedup", speedup, "ratio")

	t.layers.pending = pending
	t.layers.epochEntries = uint64(m["safetynet.entries_logged"].Value) / max(1, uint64(m["safetynet.checkpoints"].Value))
	probeLayers(tr, t.layers, put)
	endRoot()

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	id := fmt.Sprintf("%s-seed%d", w.name, seed)
	spans := filepath.Join(outDir, id+".spans.json")
	if err := tr.write(spans, id); err != nil {
		return report{}, err
	}
	if err := os.WriteFile(filepath.Join(outDir, id+".run.pprof"), t.profile, 0o644); err != nil {
		return report{}, err
	}
	fmt.Printf("workload %s seed %d cycles %d tiles %d gomaxprocs %d untraced_reps %d\n", w.name, seed, w.cycles, w.tiles(), runtime.GOMAXPROCS(0), len(baseRun))
	for _, sp := range tr.spans {
		fmt.Printf("span %-24s parent %d  %9.3f ms  self %9.3f ms\n", sp.Name, sp.Parent, float64(sp.EndNs-sp.StartNs)/1e6, float64(sp.SelfNs)/1e6)
	}
	fmt.Printf("spans and the Run call's CPU profile written to %s\n", filepath.Join(outDir, id+".*"))
	printMetrics(w.name, m)
	return report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// maxAudits caps the invariant audits of one run: an audit of a 4x4
// machine takes tens of milliseconds, and faults-4x4 checkpoints over
// two thousand times.
const maxAudits = 100

// auditRep runs cfg once with AuditInvariants at every stride-th
// checkpoint, the first included, and counts a failed audit as a
// failed repetition.
func auditRep(cfg system.Config, w spec, stride int, c *checker) (int, error) {
	audits, seen := 0, 0
	var auditErr error
	r := runRep(cfg, w.cycles, func(s *system.System) {
		s.OnCheckpoint = func() {
			seen++
			if (seen-1)%stride != 0 {
				return
			}
			audits++
			if err := s.AuditInvariants(); err != nil && auditErr == nil {
				auditErr = err
			}
		}
	})
	if r.err == nil && auditErr != nil {
		r.err = fmt.Errorf("audit: %w", auditErr)
	}
	return audits, c.check(r)
}
