// Command perfbench is the repository benchmark. It runs one named
// design-point workload through system.BuildChecked, System.Start and a
// single System.Run call, repeatedly for a time budget, checks every
// repetition's results, and prints one JSON object as the last line of
// standard output:
//
//	--trace 0: the end-to-end metrics (setup_s, sim_mcycles_per_s,
//	           peak_heap_mb), medians over the timed repetitions;
//	--trace 1: the per-layer metrics of a traced run (trace.go).
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload oltp-4x4 --seed 1 --seconds 30 --trace 0
//
// or `--workload all` to print every workload's metrics in one go.
// NOTES.md records why each workload and metric was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"specsimp/internal/sim"
	"specsimp/internal/system"
	"specsimp/internal/workload"
)

const (
	// devSeed is the seed used while developing a change; heldOutSeed
	// is the one a performance claim is re-checked on afterwards and
	// must not be used while the change is written.
	devSeed     = 1
	heldOutSeed = 20261017

	// minTimedReps is the fewest repetitions a median is taken over,
	// even when one repetition outlasts the budget.
	minTimedReps = 3
)

// spec is one design-point workload: a machine configuration built
// from the seed, and the simulated cycles of its single Run call.
type spec struct {
	name   string
	cycles sim.Time
	config func(seed uint64) system.Config
	// wantRecoveries marks the workload whose purpose is the SafetyNet
	// recovery path: a run of it without a recovery has failed.
	wantRecoveries bool
}

// tiles is the number of tile kernels the configuration runs on (the
// classic single-kernel path counts as one).
func (w spec) tiles() int {
	if s := w.config(devSeed).Shards; s > 1 {
		return s
	}
	return 1
}

var specs = []spec{
	{
		// The paper's Table 2 machine in the common case: no
		// recoveries, Build a small share of the time. Kernel dispatch,
		// switch arbitration, the directory protocol and the caches do
		// the work. Classic single-kernel path, as specsim runs by
		// default.
		name:   "oltp-4x4",
		cycles: 1_000_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfig(system.DirectorySpec, workload.OLTP)
			cfg.Seed = seed
			return cfg
		},
	},
	{
		// 256 nodes on two tiles (run refuses more tiles than the host
		// has CPUs). Build dominates memory: eagerly zeroed cache arrays.
		// The run pays the conservative-window barrier and boundary
		// drains, which no other workload enters.
		name:   "oltp-16x16-tiled2",
		cycles: 400_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfigSized(system.DirectorySpec, workload.OLTP, 16, 16)
			cfg.Shards = 2
			cfg.Seed = seed
			return cfg
		},
	},
	{
		// The availability experiment's storm/static point at Standard
		// params: SafetyNet rolls back and hits log backpressure,
		// the coordinator restores processors, slow-start throttles.
		// Fault arrivals come from the seed, so a repetition spans
		// about 160 of them to keep its work per cycle nearly the same
		// from seed to seed.
		name:   "faults-4x4",
		cycles: 6_000_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfig(system.DirectorySpec, workload.OLTP)
			cfg.FaultRegime = system.FaultStorm
			cfg.FaultRate = 40
			cfg.CyclesPerSecond = 1.5e6
			cfg.CheckpointInterval = 2000
			cfg.SlowStartWindow = 10_000
			cfg.LogBytes = 32 * 72
			cfg.TimeoutCycles = 0
			cfg.Seed = seed
			return cfg
		},
		wantRecoveries: true,
	},
	{
		// The only workload on the ordered address bus and the snoop
		// protocol: every request probes every cache.
		name:   "snoop-4x4",
		cycles: 1_500_000,
		config: func(seed uint64) system.Config {
			cfg := system.DefaultConfig(system.SnoopSpec, workload.OLTP)
			cfg.Seed = seed
			return cfg
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, w := range specs {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", devSeed, fmt.Sprintf("workload seed (development %d, held out %d)", devSeed, heldOutSeed))
	seconds := flag.Int("seconds", 30, "measurement budget per workload, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := run(*wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, budget time.Duration, traced bool) error {
	if budget <= 0 {
		return errors.New("--seconds must be positive")
	}
	var todo []spec
	if name == "all" {
		todo = specs
	} else if w, ok := specByName(name); ok {
		todo = []spec{w}
	} else {
		var names []string
		for _, w := range specs {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
	}
	printHost()
	total := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range todo {
		if w.tiles() > runtime.NumCPU() {
			return fmt.Errorf("%s runs %d tiles on a host with %d CPUs", w.name, w.tiles(), runtime.NumCPU())
		}
		// One P per tile kernel: on the single-kernel workloads the
		// collector then shares the simulation's core, so its cost
		// shows in the Run time, which no longer depends on a second
		// core that other tenants of a shared host contend for.
		runtime.GOMAXPROCS(w.tiles())
		var rep report
		var err error
		if traced {
			rep, err = tracedRun(w, seed, budget)
		} else {
			rep = timedRun(w, seed, budget)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if len(todo) == 1 {
			total = rep
			break
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, m := range rep.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printHost records the host with every result.
func printHost() {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s cpu=%q gogc=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), gogc)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rep is one repetition: Build+Start, one Run call, and its checks.
type rep struct {
	setup, run time.Duration
	heapMB     float64 // larger live heap of end-of-setup and end-of-run
	res        system.Results
	err        error
}

// setUp builds and starts cfg and returns the host time it took. Like a
// freshly started process, it starts with every free page of the heap
// returned to the OS, so each setup pays the same page faults. prepare,
// if not nil, sees the system between BuildChecked and Start.
func setUp(cfg system.Config, prepare func(*system.System)) (*system.System, time.Duration, error) {
	debug.FreeOSMemory()
	t := time.Now()
	s, err := system.BuildChecked(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	if prepare != nil {
		prepare(s)
	}
	s.Start()
	return s, time.Since(t), nil
}

// runRep sets cfg up and runs it once. A configuration error or a panic
// is returned as the repetition's error.
func runRep(cfg system.Config, cycles sim.Time, prepare func(*system.System)) (r rep) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	s, d, err := setUp(cfg, prepare)
	if err != nil {
		r.err = err
		return r
	}
	r.setup = d
	r.heapMB = liveHeapMB()
	t := time.Now()
	r.res = s.Run(cycles)
	r.run = time.Since(t)
	r.heapMB = max(r.heapMB, liveHeapMB())
	runtime.KeepAlive(s)
	return r
}

// setupReps repeats setUp alone for the budget, at least minTimedReps
// times: a setup is short next to a run, so its median needs more
// samples than the runs give.
func setupReps(cfg system.Config, budget time.Duration) (ds []time.Duration, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	start := time.Now()
	for len(ds) < minTimedReps || time.Since(start) < budget {
		_, d, err := setUp(cfg, nil)
		if err != nil {
			return ds, err
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// checker validates repetitions of one workload and seed: no build
// error or panic, forward progress, recoveries where the workload is
// meant to recover, and results identical to the first good repetition
// (the simulator is deterministic for a fixed seed).
type checker struct {
	w         spec
	ref       *system.Results
	attempted int
	failed    int
}

func (c *checker) check(r rep) error {
	c.attempted++
	err := r.err
	switch {
	case err != nil:
	case r.res.Instructions == 0:
		err = errors.New("no instructions retired")
	case c.w.wantRecoveries && r.res.Recoveries == 0:
		err = errors.New("no recoveries")
	case c.ref == nil:
		res := r.res
		c.ref = &res
	case !reflect.DeepEqual(r.res, *c.ref):
		err = errors.New("results differ from the first repetition")
	}
	if err != nil {
		c.failed++
		fmt.Printf("%s repetition %d failed: %v\n", c.w.name, c.attempted, err)
	}
	return err
}

// timedReps runs one warm-up repetition, then whole repetitions until
// the deadline, at least minTimedReps of them. The warm-up is checked
// like the others but not timed; the first good repetition is the
// reference the others must reproduce.
func timedReps(w spec, seed uint64, deadline time.Time, c *checker) []rep {
	cfg := w.config(seed)
	c.check(runRep(cfg, w.cycles, nil))
	var reps []rep
	for n := 0; n < minTimedReps || time.Now().Before(deadline); n++ {
		r := runRep(cfg, w.cycles, nil)
		if c.check(r) == nil {
			reps = append(reps, r)
		}
	}
	return reps
}

// timedRun measures the end-to-end metrics with tracing off: the first
// sixth of the budget on setups alone, the rest on whole repetitions.
func timedRun(w spec, seed uint64, budget time.Duration) report {
	c := &checker{w: w}
	start := time.Now()
	setups, err := setupReps(w.config(seed), budget/6)
	if err != nil {
		c.check(rep{err: err})
	}
	reps := timedReps(w, seed, start.Add(budget), c)
	var setup, rate, heap []float64
	for _, d := range setups {
		setup = append(setup, d.Seconds())
	}
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		rate = append(rate, float64(w.cycles)/1e6/r.run.Seconds())
		heap = append(heap, r.heapMB)
	}
	m := map[string]metric{
		"setup_s":           {median(setup), "s"},
		"sim_mcycles_per_s": {median(rate), "Mcycles/s"},
		"peak_heap_mb":      {median(heap), "MB"},
	}
	fmt.Printf("workload %s seed %d cycles %d tiles %d gomaxprocs %d setups %d timed_reps %d\n", w.name, seed, w.cycles, w.tiles(), runtime.GOMAXPROCS(0), len(setup), len(reps))
	printMetrics(w.name, m)
	fmt.Printf("%s failed_frac %g (%d of %d runs)\n", w.name, float64(c.failed)/float64(c.attempted), c.failed, c.attempted)
	if c.ref != nil {
		fmt.Printf("%s sim instructions=%d ipc=%.6f recoveries=%d checkpoints=%d transactions=%d\n",
			w.name, c.ref.Instructions, c.ref.Perf, c.ref.Recoveries, c.ref.Checkpoints, c.ref.Transactions)
	}
	return report{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

func printMetrics(prefix string, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.6g %s\n", prefix, k, m[k].Value, m[k].Unit)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
