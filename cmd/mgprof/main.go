// Command mgprof is the pipeline performance driver: the reproducible
// instrument behind the repo's perf trajectory. It runs the cycle-accurate
// simulator over the benchmark subset on the baseline and mini-graph
// machines (preparation — build, profile, extract, rewrite — happens
// outside the timed region), measures simulated-cycles-per-second and
// allocations per run, and writes the results as BENCH_pipeline.json.
// It also measures the capture-once/replay-many configuration sweep: one
// functional-emulation capture per benchmark, then every machine arm
// replayed from the shared trace, against the same sweep run with live
// per-arm emulation. It can also capture pprof profiles of exactly those
// hot loops.
//
// Usage:
//
//	mgprof [-out BENCH_pipeline.json] [-iters N]
//	       [-benches gzip,sha] [-machines baseline,minigraph]
//	       [-predictor hybrid|tage] [-prefetcher none|delta]
//	       [-sweep-lats 0,110,...] [-no-sweep] [-chunked=false]
//	       [-trace-chunk-records N] [-trace-chunk-window N]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The JSON schema (v4: per-pair runs, the sweep block and the chunked
// block) is documented in the README's Performance section; CI runs mgprof
// once per push and uploads the artifact, so regressions in simulator
// throughput, hot-path allocation, the capture/replay split, or
// bounded-memory chunk streaming overhead are visible in history.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"minigraph"
	"minigraph/internal/workload"
)

// Report is the BENCH_pipeline.json envelope (schema v4).
type Report struct {
	Schema     string       `json:"schema"` // "minigraph-bench-pipeline/v4"
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Runs       []RunStat    `json:"runs"`
	Totals     Totals       `json:"totals"`
	Sweep      *SweepStat   `json:"sweep,omitempty"`
	Chunked    *ChunkedStat `json:"chunked,omitempty"`
}

// RunStat is one (benchmark, machine) measurement, averaged over the
// iteration count.
type RunStat struct {
	Bench         string  `json:"bench"`
	Machine       string  `json:"machine"`
	Iterations    int     `json:"iterations"`
	CyclesPerRun  int64   `json:"cycles_per_run"`
	RetiredPerRun int64   `json:"retired_per_run"`
	SecondsPerRun float64 `json:"seconds_per_run"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`
	MInstPerSec   float64 `json:"minst_per_sec"`
	AllocsPerRun  int64   `json:"allocs_per_run"`
	BytesPerRun   int64   `json:"bytes_per_run"`
}

// Totals aggregates one full pass over every measured pair.
type Totals struct {
	CyclesPerSec float64 `json:"cycles_per_sec"`
	MInstPerSec  float64 `json:"minst_per_sec"`
	AllocsPerRun int64   `json:"allocs_per_run"`
	Seconds      float64 `json:"seconds"`
}

// SweepStat is the multi-arm configuration sweep: every benchmark's
// mini-graph binary timed under each DRAM latency, once via trace replay
// (capture each binary's dynamic stream once, replay it per arm) and once
// via live per-arm emulation. The split shows where capture-once/
// replay-many wins: CaptureSeconds is paid once per benchmark, live
// emulation once per arm.
type SweepStat struct {
	Benches      []string `json:"benches"`
	MemLatencies []int    `json:"mem_latencies"`
	Arms         int      `json:"arms"`

	CaptureSeconds     float64 `json:"capture_seconds"`
	ReplaySeconds      float64 `json:"replay_seconds"` // arm replays, excl. capture
	ReplayArmsPerSec   float64 `json:"replay_arms_per_sec"`
	ReplayAllocsPerArm int64   `json:"replay_allocs_per_arm"`

	LiveSeconds      float64 `json:"live_seconds"`
	LiveArmsPerSec   float64 `json:"live_arms_per_sec"`
	LiveAllocsPerArm int64   `json:"live_allocs_per_arm"`

	// Speedup is replay arms/sec (capture included) over live arms/sec.
	Speedup float64 `json:"speedup"`
}

// ChunkedStat compares the engine sweep with traces fully resident (the
// pre-chunking monolithic behavior: every replay reads from one in-memory
// buffer) against the same sweep streaming chunks through a bounded
// per-cursor window faulted from the store. The streamed pass is the
// larger-than-RAM configuration; its overhead over the resident pass is
// the price of bounded memory, and PeakWindowBytes shows the bound held.
type ChunkedStat struct {
	Arms         int   `json:"arms"`
	ChunkRecords int64 `json:"chunk_records"`
	ChunkWindow  int   `json:"chunk_window"`

	// ResidentSeconds/ResidentArmsPerSec: store-backed sweep, unbounded
	// window — traces replay fully resident (monolithic-equivalent).
	ResidentSeconds    float64 `json:"resident_seconds"`
	ResidentArmsPerSec float64 `json:"resident_arms_per_sec"`

	// StreamedSeconds/StreamedArmsPerSec: same sweep with at most
	// ChunkWindow chunks resident per replay cursor, faulted from the
	// store.
	StreamedSeconds    float64 `json:"streamed_seconds"`
	StreamedArmsPerSec float64 `json:"streamed_arms_per_sec"`
	ChunkFaults        int64   `json:"chunk_faults"`
	ChunkEvictions     int64   `json:"chunk_evictions"`
	PeakWindowBytes    int64   `json:"peak_window_bytes"`

	// Overhead is streamed seconds over resident seconds (1.0 = free).
	Overhead float64 `json:"overhead"`
}

// job is one prepared measurement target.
type job struct {
	bench   string
	machine string
	cfg     minigraph.SimConfig
	prog    *minigraph.Program
	mgt     *minigraph.MGT
}

// frontend holds the -predictor/-prefetcher overrides, applied to every
// machine configuration mgprof builds (measured pairs and sweep arms), so
// front-end throughput cost shows up in the same report as everything else.
var frontend struct{ predictor, prefetcher string }

// frontendConfig applies the front-end flags to one machine configuration.
// The flag values are validated in main, so this cannot fail mid-run.
func frontendConfig(cfg minigraph.SimConfig) minigraph.SimConfig {
	cfg, err := minigraph.FrontendConfig(cfg, frontend.predictor, frontend.prefetcher)
	if err != nil {
		panic(err) // unreachable: main validated the flags
	}
	return cfg
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output path for the JSON report")
	iters := flag.Int("iters", 3, "timed simulations per (bench, machine) pair")
	benches := flag.String("benches", strings.Join(workload.BenchSubset(), ","), "comma-separated benchmark names")
	machines := flag.String("machines", "baseline,minigraph", "comma-separated machines (baseline, minigraph)")
	predictor := flag.String("predictor", "", "branch predictor for every machine (hybrid tage; empty = presets)")
	prefetcher := flag.String("prefetcher", "", "data prefetcher for every machine (none delta; empty = presets)")
	sweepLats := flag.String("sweep-lats", "0,110,120,130,140,150,160,170", "comma-separated DRAM latencies for the sweep")
	noSweep := flag.Bool("no-sweep", false, "skip the sweep measurements (capture/replay and chunked)")
	chunked := flag.Bool("chunked", true, "measure the chunked sweep (bounded chunk window vs fully-resident traces)")
	chunkRecords := flag.Int64("trace-chunk-records", 1<<12, "records per trace chunk for the chunked sweep, rounded up to a power of two")
	chunkWindow := flag.Int("trace-chunk-window", 2, "resident chunks per replay cursor in the chunked sweep's streamed pass")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed loops")
	memprofile := flag.String("memprofile", "", "write an allocation profile after the timed loops")
	flag.Parse()

	if _, err := minigraph.FrontendConfig(minigraph.BaselineConfig(), *predictor, *prefetcher); err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(2)
	}
	frontend.predictor, frontend.prefetcher = *predictor, *prefetcher

	cw := chunkedSweep{measure: *chunked, records: *chunkRecords, window: *chunkWindow}
	if err := run(*out, *iters, *benches, *machines, *sweepLats, *noSweep, cw, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "mgprof:", err)
		os.Exit(1)
	}
}

// chunkedSweep carries the chunked-measurement flags.
type chunkedSweep struct {
	measure bool
	records int64
	window  int
}

func run(out string, iters int, benches, machines, sweepLats string, noSweep bool, cw chunkedSweep, cpuprofile, memprofile string) error {
	if iters < 1 {
		iters = 1
	}
	jobs, err := prepare(benches, machines)
	if err != nil {
		return err
	}
	lats, err := parseLats(sweepLats)
	if err != nil {
		return err
	}

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := Report{
		Schema:     "minigraph-bench-pipeline/v4",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, j := range jobs {
		rs, err := measure(j, iters)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mgprof: %-10s %-10s %12.0f cycles/s %8d allocs/run\n",
			rs.Bench, rs.Machine, rs.CyclesPerSec, rs.AllocsPerRun)
		rep.Runs = append(rep.Runs, rs)
	}
	var cycles, retired int64
	for _, r := range rep.Runs {
		cycles += r.CyclesPerRun
		retired += r.RetiredPerRun
		rep.Totals.AllocsPerRun += r.AllocsPerRun
		rep.Totals.Seconds += r.SecondsPerRun
	}
	if rep.Totals.Seconds > 0 {
		rep.Totals.CyclesPerSec = float64(cycles) / rep.Totals.Seconds
		rep.Totals.MInstPerSec = float64(retired) / rep.Totals.Seconds / 1e6
	}

	if !noSweep {
		sw, err := measureSweep(benches, lats)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mgprof: sweep %d arms: replay %.2f arms/s (capture %.3fs + replay %.3fs), live %.2f arms/s, speedup %.2fx\n",
			sw.Arms, sw.ReplayArmsPerSec, sw.CaptureSeconds, sw.ReplaySeconds, sw.LiveArmsPerSec, sw.Speedup)
		rep.Sweep = sw
	}
	if !noSweep && cw.measure {
		cs, err := measureChunked(benches, lats, cw)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mgprof: chunked sweep %d arms: streamed %.2f arms/s vs resident %.2f arms/s (%.2fx overhead), peak window %d bytes, %d faults\n",
			cs.Arms, cs.StreamedArmsPerSec, cs.ResidentArmsPerSec, cs.Overhead, cs.PeakWindowBytes, cs.ChunkFaults)
		rep.Chunked = cs
	}

	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mgprof: wrote %s (total %.0f cycles/s, %d allocs/run)\n",
		out, rep.Totals.CyclesPerSec, rep.Totals.AllocsPerRun)
	return nil
}

func parseLats(s string) ([]int, error) {
	var lats []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad sweep latency %q", f)
		}
		lats = append(lats, v)
	}
	if len(lats) == 0 {
		return nil, fmt.Errorf("sweep needs at least one latency")
	}
	return lats, nil
}

// prepare builds every (bench, machine) pair up front so the measured
// region contains nothing but pipeline simulation.
func prepare(benches, machines string) ([]job, error) {
	var jobs []job
	for _, name := range strings.Split(benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		wl, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q (known: %s)", name, strings.Join(workload.Names(), " "))
		}
		prog := wl.Build(workload.InputTrain)
		for _, m := range strings.Split(machines, ",") {
			switch strings.TrimSpace(m) {
			case "baseline":
				jobs = append(jobs, job{bench: name, machine: "baseline", cfg: frontendConfig(minigraph.BaselineConfig()), prog: prog})
			case "minigraph":
				rw, err := rewritten(name, prog)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, job{bench: name, machine: "minigraph", cfg: frontendConfig(minigraph.MiniGraphConfig(true)), prog: rw.Prog, mgt: rw.MGT})
			case "":
			default:
				return nil, fmt.Errorf("unknown machine %q (want baseline or minigraph)", m)
			}
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("nothing to measure")
	}
	return jobs, nil
}

func rewritten(name string, prog *minigraph.Program) (*minigraph.Rewritten, error) {
	prof, err := minigraph.ProfileOf(prog, minigraph.ProfileLimit)
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", name, err)
	}
	rw, err := minigraph.Extract(prog, prof, minigraph.DefaultPolicy(), 512, minigraph.DefaultExecParams())
	if err != nil {
		return nil, fmt.Errorf("%s: extract: %w", name, err)
	}
	return rw, nil
}

// measure times iters simulations of j on one goroutine, reading allocator
// deltas around the loop.
func measure(j job, iters int) (RunStat, error) {
	ctx := context.Background()
	// Warm-up run outside the measurement (page faults, code warmup).
	if _, err := minigraph.SimulateContext(ctx, j.cfg, j.prog, j.mgt); err != nil {
		return RunStat{}, fmt.Errorf("%s@%s: %w", j.bench, j.machine, err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var cycles, retired int64
	for i := 0; i < iters; i++ {
		res, err := minigraph.SimulateContext(ctx, j.cfg, j.prog, j.mgt)
		if err != nil {
			return RunStat{}, fmt.Errorf("%s@%s: %w", j.bench, j.machine, err)
		}
		cycles += res.Cycles
		retired += res.Retired
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)

	sec := elapsed.Seconds()
	rs := RunStat{
		Bench:         j.bench,
		Machine:       j.machine,
		Iterations:    iters,
		CyclesPerRun:  cycles / int64(iters),
		RetiredPerRun: retired / int64(iters),
		SecondsPerRun: sec / float64(iters),
		AllocsPerRun:  int64(m1.Mallocs-m0.Mallocs) / int64(iters),
		BytesPerRun:   int64(m1.TotalAlloc-m0.TotalAlloc) / int64(iters),
	}
	if sec > 0 {
		rs.CyclesPerSec = float64(cycles) / sec
		rs.MInstPerSec = float64(retired) / sec / 1e6
	}
	return rs, nil
}

// measureSweep times the configuration sweep in both modes. Preparation
// (build, profile, extract, rewrite) happens outside every timed region;
// what the clock sees is exactly what differs between the modes: one
// capture + N trace replays, versus N live emulation-driven simulations.
func measureSweep(benches string, lats []int) (*SweepStat, error) {
	ctx := context.Background()
	type target struct {
		name string
		prog *minigraph.Program
		mgt  *minigraph.MGT
	}
	var targets []target
	var names []string
	for _, name := range strings.Split(benches, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		wl, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		rw, err := rewritten(name, wl.Build(workload.InputTrain))
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{name: name, prog: rw.Prog, mgt: rw.MGT})
		names = append(names, name)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("sweep has no benchmarks")
	}
	configs := make([]minigraph.SimConfig, len(lats))
	for i, ml := range lats {
		configs[i] = frontendConfig(minigraph.MiniGraphConfig(true))
		configs[i].MemLatency = ml
	}
	sw := &SweepStat{Benches: names, MemLatencies: lats, Arms: len(targets) * len(configs)}

	// Warm-up: one capture+replay and one live arm per benchmark.
	for _, tg := range targets {
		tr, err := minigraph.CaptureTrace(ctx, tg.prog, tg.mgt, 0)
		if err != nil {
			return nil, err
		}
		if _, err := minigraph.SimulateTrace(ctx, configs[0], tr, tg.prog, tg.mgt); err != nil {
			return nil, err
		}
		if _, err := minigraph.SimulateContext(ctx, configs[0], tg.prog, tg.mgt); err != nil {
			return nil, err
		}
	}

	// Replay mode: capture once per benchmark, replay every arm.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, tg := range targets {
		t0 := time.Now()
		tr, err := minigraph.CaptureTrace(ctx, tg.prog, tg.mgt, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: capture: %w", tg.name, err)
		}
		sw.CaptureSeconds += time.Since(t0).Seconds()
		t0 = time.Now()
		for _, cfg := range configs {
			if _, err := minigraph.SimulateTrace(ctx, cfg, tr, tg.prog, tg.mgt); err != nil {
				return nil, fmt.Errorf("%s: replay: %w", tg.name, err)
			}
		}
		sw.ReplaySeconds += time.Since(t0).Seconds()
	}
	runtime.ReadMemStats(&m1)
	sw.ReplayAllocsPerArm = int64(m1.Mallocs-m0.Mallocs) / int64(sw.Arms)

	// Live mode: every arm pays for its own emulation.
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for _, tg := range targets {
		for _, cfg := range configs {
			if _, err := minigraph.SimulateContext(ctx, cfg, tg.prog, tg.mgt); err != nil {
				return nil, fmt.Errorf("%s: live: %w", tg.name, err)
			}
		}
	}
	sw.LiveSeconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	sw.LiveAllocsPerArm = int64(m1.Mallocs-m0.Mallocs) / int64(sw.Arms)

	if tot := sw.CaptureSeconds + sw.ReplaySeconds; tot > 0 {
		sw.ReplayArmsPerSec = float64(sw.Arms) / tot
	}
	if sw.LiveSeconds > 0 {
		sw.LiveArmsPerSec = float64(sw.Arms) / sw.LiveSeconds
	}
	if sw.LiveArmsPerSec > 0 {
		sw.Speedup = sw.ReplayArmsPerSec / sw.LiveArmsPerSec
	}
	return sw, nil
}

// measureChunked times the engine sweep twice against a persistent store
// in a throwaway directory: once with the unbounded default window —
// captures persist chunked but replay fully resident, the monolithic-
// equivalent path — and once with a small bounded window, where capture
// spills sealed chunks to the store as it goes and every replay cursor
// faults chunks back on demand. Both passes run cold engines with
// preparation warmed outside the clock; the ratio is the end-to-end cost
// of bounding trace memory.
func measureChunked(benches string, lats []int, cw chunkedSweep) (*ChunkedStat, error) {
	ctx := context.Background()
	var names []string
	for _, name := range strings.Split(benches, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("chunked sweep has no benchmarks")
	}
	var jobs []minigraph.SimJob
	for _, name := range names {
		for _, ml := range lats {
			cfg := frontendConfig(minigraph.MiniGraphConfig(true))
			cfg.MemLatency = ml
			jobs = append(jobs, minigraph.SimJob{
				Prepare: minigraph.PrepareKey{Bench: name, Input: minigraph.InputTrain},
				Policy:  minigraph.DefaultPolicy(),
				Entries: 512,
				Config:  cfg,
			})
		}
	}
	cs := &ChunkedStat{Arms: len(jobs), ChunkRecords: cw.records, ChunkWindow: cw.window}

	sweep := func(window int) (float64, minigraph.EngineStats, error) {
		dir, err := os.MkdirTemp("", "mgprof-chunked-")
		if err != nil {
			return 0, minigraph.EngineStats{}, err
		}
		defer os.RemoveAll(dir)
		st, err := minigraph.OpenStore(dir, -1)
		if err != nil {
			return 0, minigraph.EngineStats{}, err
		}
		eng := minigraph.NewEngine(0).WithStore(st).
			WithTraceChunkRecords(cw.records).
			WithTraceChunkWindow(window)
		for _, name := range names {
			pk := minigraph.PrepareKey{Bench: name, Input: minigraph.InputTrain}
			if _, err := eng.Prepare(ctx, pk); err != nil {
				return 0, minigraph.EngineStats{}, err
			}
		}
		t0 := time.Now()
		if _, err := eng.Run(ctx, jobs); err != nil {
			return 0, minigraph.EngineStats{}, err
		}
		return time.Since(t0).Seconds(), eng.Stats(), nil
	}

	sec, _, err := sweep(0)
	if err != nil {
		return nil, fmt.Errorf("resident sweep: %w", err)
	}
	cs.ResidentSeconds = sec
	if sec > 0 {
		cs.ResidentArmsPerSec = float64(cs.Arms) / sec
	}

	sec, st, err := sweep(cw.window)
	if err != nil {
		return nil, fmt.Errorf("streamed sweep: %w", err)
	}
	cs.StreamedSeconds = sec
	cs.ChunkFaults = st.TraceChunkFaults
	cs.ChunkEvictions = st.TraceChunkEvictions
	cs.PeakWindowBytes = st.TraceChunkWindowPeakBytes
	if sec > 0 {
		cs.StreamedArmsPerSec = float64(cs.Arms) / sec
	}
	if cs.ResidentSeconds > 0 {
		cs.Overhead = cs.StreamedSeconds / cs.ResidentSeconds
	}
	return cs, nil
}
