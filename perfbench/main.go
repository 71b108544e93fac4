// Command perfbench is the repository benchmark. It runs one seeded
// workload against the simulator's packages, checks every output, and
// prints its metrics as a JSON object on the last line of standard output:
//
//	bash perfbench/run.sh --workload sweep|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics (setup_s,
// ops_per_s, peak_rss_mb). With --trace 1 the workload runs once untraced
// and once traced, and the object carries the per-layer metrics: spans
// around the benchmark's own calls into each layer, counter deltas, Go
// runtime metrics, CPU-profile shares per module, and the tracing overhead.
// README.md lists the workloads, the metrics and the layer predictions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one benchmark run: its arguments, the failure tally, and
// the metrics the workload reports.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	rng      *rand.Rand

	attempted int
	failed    int

	setups  []float64 // seconds per set-up, one per measured unit
	opsRate []float64 // operations per second, one per measured unit
	rssMB   []float64 // peak RSS in MB, one per measured unit
	layers  map[string]metric
	// layerUnits is BENCHMARK.json's per-layer metrics and their units.
	layerUnits map[string]string
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep or serve")
	seed := flag.Uint64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 20, "about how long to measure, in seconds: sets the number of measured units (at least 3)")
	traceFlag := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload sweep|serve --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		rng:      rand.New(rand.NewPCG(*seed, 0x6d696e6967726170)),
		layers:   map[string]metric{},
	}
	fmt.Printf("perfbench: context workload=%s seed=%d gomaxprocs=%d go=%s calibration_mops=%.1f\n",
		b.workload, b.seed, runtime.GOMAXPROCS(0), runtime.Version(), calibrate())
	if err := run(ctx, b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.layers,
	}
	if !b.traced {
		res.Metrics = map[string]metric{
			"setup_s":     {median(b.setups), "s"},
			"ops_per_s":   {median(b.opsRate), "1/s"},
			"peak_rss_mb": {median(b.rssMB), "MB"},
		}
	}
	fmt.Printf("perfbench: %s failed %d of %d operations\n", b.workload, b.failed, b.attempted)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(context.Context, *bench) error{
	"sweep": runSweep,
	"serve": runServe,
}

// maxFailureLines bounds the failure details printed to standard error;
// the count is always complete.
const maxFailureLines = 10

// check counts one failed operation when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	b.failed++
	if b.failed <= maxFailureLines {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
	}
}

// report prints one of the workload's own end-to-end figures (the names
// README.md defines, such as sweep_arms_per_s) on a human-readable line.
func (b *bench) report(name string, v float64, unit string) {
	fmt.Printf("perfbench: %s %s = %.6g %s\n", b.workload, name, v, unit)
}

// layer records one per-layer metric of the traced run.
func (b *bench) layer(name string, v float64, unit string) {
	b.layers[name] = metric{v, unit}
}

// unit records one measured unit of work for the end-to-end metrics.
func (b *bench) unit(setup float64, ops int, wall time.Duration, rssMB float64) {
	b.rssMB = append(b.rssMB, rssMB)
	b.setups = append(b.setups, setup)
	b.opsRate = append(b.opsRate, float64(ops)/wall.Seconds())
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by nearest rank;
// 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate times a fixed CPU-only loop (xorshift steps) and returns
// millions of steps per second: context for reading runs from different
// hosts side by side, never a gated metric.
func calibrate() float64 {
	const steps = 50_000_000
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibrationSink = x
	return steps / time.Since(start).Seconds() / 1e6
}

// resetPeakRSS returns unused heap to the OS and restarts the kernel's
// resident-set high-water mark, so the next peakRSSMB reading covers only
// what runs in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// unit is one measured unit of work and what to do with its outputs.
type unit struct {
	// run does the measured work; tr is nil on untraced passes. It returns
	// the number of operations completed.
	run func(ctx context.Context, tr *tracer) (int, error)
	// check tallies the unit's operations and failed output checks and
	// prints its end-to-end figures; wall is run's duration.
	check func(wall time.Duration)
	// after runs once after the traced pass, outside the timed region, and
	// records the per-layer metrics.
	after func(ctx context.Context, tr *tracer) error
	// close releases what set-up acquired (optional).
	close func()
}

// outDir holds what a traced run writes (spans, CPU profile) and the
// serve workload's store, inside the checkout.
const outDir = ".bench_build/perfbench-out"

// minUnits is the fewest measured units an untraced run makes, so each
// end-to-end figure is a median of at least three.
const minUnits = 3

// unitsFor is how many units an untraced run measures when one unit takes
// about nominal on the reference host (README.md): --seconds divided by
// nominal, rounded, and at least minUnits. The count depends only on the
// arguments, never on how fast the host runs, so every run's median is
// taken over the same number of units.
func (b *bench) unitsFor(nominal time.Duration) int {
	return max(minUnits, int(math.Round(b.seconds.Seconds()/nominal.Seconds())))
}

// measure runs the workload. Untraced, it repeats set-up and one unit
// units times, recording each unit's set-up time, throughput and peak RSS.
// Traced, it runs one untraced unit and then one
// traced unit, and records the per-layer metrics and the tracing overhead
// between the two.
func (b *bench) measure(ctx context.Context, units int, setUp func(context.Context) (*unit, error)) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	one := func(tr *tracer) (ops int, wall time.Duration, err error) {
		start := time.Now()
		u, err := setUp(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		if u.close != nil {
			defer u.close()
		}
		setup := time.Since(start).Seconds()
		if err := resetPeakRSS(); err != nil {
			return 0, 0, fmt.Errorf("reset peak RSS: %w", err)
		}
		var prof *profiler
		if tr != nil {
			if prof, err = startProfiler(); err != nil {
				return 0, 0, err
			}
		}
		start = time.Now()
		ops, err = u.run(ctx, tr)
		wall = time.Since(start)
		if prof != nil {
			if perr := prof.stop(b, outDir); err == nil {
				err = perr
			}
		}
		if err != nil {
			return 0, 0, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return 0, 0, err
		}
		b.report("setup_s", setup, "s")
		b.report("peak_rss_mb", rss, "MB")
		u.check(wall)
		b.unit(setup, ops, wall, rss)
		if tr != nil {
			err = u.after(ctx, tr)
		}
		return ops, wall, err
	}

	if !b.traced {
		for range units {
			if _, _, err := one(nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := b.initLayers(); err != nil {
		return err
	}
	ops0, wall0, err := one(nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	ops1, wall1, err := one(tr)
	if err != nil {
		return err
	}
	untraced, traced := float64(ops0)/wall0.Seconds(), float64(ops1)/wall1.Seconds()
	b.layer("tracing.untraced_ops_per_s", untraced, "1/s")
	b.layer("tracing.traced_ops_per_s", traced, "1/s")
	b.layer("tracing.overhead_pct", (untraced/traced-1)*100, "%")
	b.reportPrediction()
	if err := b.checkLayers(); err != nil {
		return err
	}
	return tr.write(outDir, b.workload, b.seed)
}
