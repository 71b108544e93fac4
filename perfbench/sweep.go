package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"minigraph/internal/experiments"
	"minigraph/internal/sim"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

// sweepLatencies are the DRAM latencies (core cycles) of the sweep's arms.
var sweepLatencies = []int{0, 120, 160, 200}

// sweepNominalUnit is about how long one 64-arm sweep takes on the
// reference host; it sets how many units a run measures.
const sweepNominalUnit = 9 * time.Second

// sweepArms returns the 16 machine configurations swept per binary: DRAM
// latency × branch predictor {hybrid, TAGE} × prefetcher {none, delta} on
// the integer-memory mini-graph machine.
func sweepArms() []uarch.Config {
	var cfgs []uarch.Config
	for _, lat := range sweepLatencies {
		for _, tage := range []bool{false, true} {
			for _, delta := range []bool{false, true} {
				cfg := uarch.MiniGraph(true)
				cfg.MemLatency = lat
				pred, pf := bpred.KindHybrid, prefetch.KindNone
				if tage {
					cfg.BPred = bpred.TageConfig()
					pred = bpred.KindTAGE
				}
				if delta {
					cfg.Prefetcher = prefetch.DefaultDelta()
					pf = prefetch.KindDelta
				}
				cfg.Name = fmt.Sprintf("mem%d/%s/%s", lat, pred, pf)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// runSweep measures a design-space sweep through sim.Engine.RunEach (Run
// with a completion hook, used only by the traced pass), a fixed number of
// times (b.unitsFor): the four
// golden-subset binaries × 16 machine arms on a fresh engine whose
// preparations ran in set-up, so the measured time is trace capture (once
// per binary) plus 64 timing simulations. One operation is one arm; every
// arm must carry the functional emulator's retired digest.
func runSweep(ctx context.Context, b *bench) error {
	benches := workload.BenchSubset()
	var jobs []sim.SimJob
	for _, name := range benches {
		for _, cfg := range sweepArms() {
			jobs = append(jobs, mgJob(name, cfg))
		}
	}
	// The seed sets the order the engine receives the arms in.
	b.rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	return b.measure(ctx, b.unitsFor(sweepNominalUnit), func(ctx context.Context) (*unit, error) {
		eng := sim.New(0)
		refs := map[string]reference{}
		for _, name := range benches {
			ref, err := emulatorReference(ctx, eng, name)
			if err != nil {
				return nil, err
			}
			refs[name] = ref
		}
		u := &unit{}
		var outs []*sim.Outcome
		var doneMS []float64
		var allocs float64 // traced pass: heap allocations during the sweep
		u.run = func(ctx context.Context, tr *tracer) (int, error) {
			var onDone func(int, *sim.Outcome)
			if tr != nil {
				var mu sync.Mutex
				start := time.Now()
				onDone = func(int, *sim.Outcome) {
					mu.Lock()
					defer mu.Unlock()
					doneMS = append(doneMS, float64(time.Since(start).Nanoseconds())/1e6)
				}
			}
			a0 := runtimeValue("/gc/heap/allocs:objects")
			s := tr.begin("sim.run", -1)
			var err error
			outs, err = eng.RunEach(ctx, jobs, onDone)
			tr.end(s)
			allocs = runtimeValue("/gc/heap/allocs:objects") - a0
			return len(jobs), err
		}
		u.check = func(wall time.Duration) {
			b.report("sweep_arms_per_s", float64(len(jobs))/wall.Seconds(), "arms/s")
			b.attempted += len(jobs)
			for i, job := range jobs {
				var res *uarch.Result
				if outs[i] != nil {
					res = outs[i].Result
				}
				b.checkOutcome("sweep: "+job.Prepare.Bench+" "+job.Config.Name, res, refs[job.Prepare.Bench])
			}
		}
		u.after = func(ctx context.Context, tr *tracer) error {
			b.simLayers(eng.Stats(), doneMS)
			// The uarch layer is the sweep's own: the simulated counts of
			// all 64 arms, and the host time of the Engine.Run call (which
			// includes the four captures).
			results := make([]*uarch.Result, 0, len(outs))
			for _, o := range outs {
				if o != nil && o.Result != nil {
					results = append(results, o.Result)
				}
			}
			b.uarchLayers(results, tr.seconds("sim.run"), allocs)
			speedups, err := probeLayers(ctx, b, tr, benches, true)
			if err != nil {
				return err
			}
			perf, err := reproduceFigures(ctx, b, tr, benches)
			if err != nil {
				return err
			}
			// The probe's own baseline and mini-graph simulations must
			// agree with Figure 6's intmem column.
			for i, name := range benches {
				j := slices.IndexFunc(perf, func(r experiments.PerfRow) bool { return r.Bench == name })
				b.check(j >= 0 && perf[j].IntMem == speedups[i], "figures: %s probe speedup %v differs from Figure 6 intmem", name, speedups[i])
			}
			return nil
		}
		return u, nil
	})
}
