package main

import (
	"context"
	"fmt"
	"math"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/program"
	"minigraph/internal/rewrite"
	"minigraph/internal/sim"
	"minigraph/internal/stats"
	"minigraph/internal/trace"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// The mini-graph arm every workload measures: integer-memory mini-graphs
// of at most four instructions from a 512-entry MGT, nop-fill rewriting,
// on the paper's mini-graph machine. It is Figure 6's "intmem" arm and
// mgserve's default "minigraph" machine.
const (
	mgEntries = 512
	mgMaxSize = 4
)

func mgPolicy() core.Policy {
	pol := core.DefaultPolicy()
	pol.MaxSize = mgMaxSize
	pol.AllowMem = true
	return pol
}

// mgJob is the mini-graph simulation job for bench on cfg.
func mgJob(bench string, cfg uarch.Config) sim.SimJob {
	return sim.SimJob{
		Prepare: sim.PrepareKey{Bench: bench, Input: workload.InputTrain},
		Policy:  mgPolicy(),
		Entries: mgEntries,
		Config:  cfg,
	}
}

// reference is the functional emulator's retired-state digest of one
// rewritten binary, which every timing simulation of that binary must
// reproduce. (Retired counts are not compared: the nop-fill rewrite's
// nops execute in the emulator but never enter the pipeline's back end.)
type reference struct {
	digest uint64
}

// emulatorReference extracts and rewrites the prepared bench exactly as
// the engine does for mgJob, then runs the rewritten binary to completion
// on the functional emulator.
func emulatorReference(ctx context.Context, eng *sim.Engine, bench string) (reference, error) {
	pr, err := eng.Prepare(ctx, sim.PrepareKey{Bench: bench, Input: workload.InputTrain})
	if err != nil {
		return reference{}, err
	}
	sel := core.Extract(pr.CFG, pr.Live, pr.Prof, mgPolicy(), mgEntries)
	rw, err := rewrite.Rewrite(pr.Prog, sel, false)
	if err != nil {
		return reference{}, fmt.Errorf("%s: rewrite: %w", bench, err)
	}
	mgt := core.NewMGT(rw.Templates, sim.ExecParams(uarch.MiniGraph(true)))
	fs, err := emu.RunToCompletion(rw.Prog, mgt, math.MaxInt64)
	if err != nil {
		return reference{}, fmt.Errorf("%s: emulate: %w", bench, err)
	}
	return reference{digest: uint64(fs.Digest)}, nil
}

// checkOutcome counts a failed operation unless res carries the
// emulator's retired digest.
func (b *bench) checkOutcome(label string, res *uarch.Result, ref reference) {
	if res == nil {
		b.check(false, "%s: no result", label)
		return
	}
	b.check(res.RetiredDigest == ref.digest, "%s: retired digest %#x, the emulator's %#x", label, res.RetiredDigest, ref.digest)
}

// probeLayers calls each layer directly, one benchmark at a time, with a
// span around every call: build, CFG and liveness, functional profile,
// extraction, rewrite, and trace capture of the baseline and the
// mini-graph binary. With simulate set it also simulates both captures on
// the default baseline and mini-graph machines, Figure 6's baseline and
// intmem arms, and records their IPCs and speedup geomean. The workloads
// record the rest of the uarch layer from their own simulations. The
// returned speedups (baseline cycles over mini-graph cycles) are
// index-aligned with benches, or nil without simulate.
func probeLayers(ctx context.Context, b *bench, tr *tracer, benches []string, simulate bool) ([]float64, error) {
	root := tr.begin("probe", -1)
	defer tr.end(root)
	var (
		profInsts, captureRecs, captures, extracts int64
		base, mg                                   []*uarch.Result
		speedups                                   []float64
	)
	for _, name := range benches {
		wb, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		s := tr.begin("workload.build", root)
		p := wb.Build(workload.InputTrain)
		tr.end(s)

		s = tr.begin("program.cfg", root)
		g := program.BuildCFG(p, nil)
		lv := program.ComputeLiveness(g)
		tr.end(s)

		s = tr.begin("emu.profile", root)
		prof, err := emu.ProfileProgram(p, nil, sim.ProfileLimit)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: profile: %w", name, err)
		}
		profInsts += prof.DynInsts

		s = tr.begin("core.extract", root)
		sel := core.Extract(g, lv, prof, mgPolicy(), mgEntries)
		tr.end(s)
		extracts++

		s = tr.begin("rewrite.rewrite", root)
		rw, err := rewrite.Rewrite(p, sel, false)
		tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("%s: rewrite: %w", name, err)
		}

		mgCfg := uarch.MiniGraph(true)
		var cycles [2]int64
		for i, arm := range []struct {
			cfg     uarch.Config
			mgt     *core.MGT
			results *[]*uarch.Result
		}{
			{cfg: uarch.Baseline(), results: &base},
			{cfg: mgCfg, mgt: core.NewMGT(rw.Templates, sim.ExecParams(mgCfg)), results: &mg},
		} {
			prog := p
			if arm.mgt != nil {
				prog = rw.Prog
			}
			s = tr.begin("trace.capture", root)
			t, err := trace.CaptureSized(ctx, prog, arm.mgt, 0, prof.DynInsts)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("%s: capture: %w", name, err)
			}
			captures++
			captureRecs += t.Len()
			if !simulate {
				continue
			}

			s = tr.begin("uarch.sim", root)
			res, err := uarch.NewWithSource(arm.cfg, arm.mgt, trace.NewReader(t, prog, 0)).Run(ctx)
			tr.end(s)
			if err != nil {
				return nil, fmt.Errorf("%s: simulate: %w", name, err)
			}
			*arm.results = append(*arm.results, res)
			cycles[i] = res.Cycles
		}
		if simulate {
			speedups = append(speedups, float64(cycles[0])/float64(cycles[1]))
		}
	}

	b.layer("workload.build_s", tr.seconds("workload.build"), "s")
	b.layer("program.cfg_s", tr.seconds("program.cfg"), "s")
	b.layer("emu.profile_s", tr.seconds("emu.profile"), "s")
	b.layer("emu.profile_minst_per_s", rate(float64(profInsts)/1e6, tr.seconds("emu.profile")), "Minst/s")
	b.layer("core.extract_s", tr.seconds("core.extract"), "s")
	b.layer("core.extracts", float64(extracts), "count")
	b.layer("rewrite.rewrite_s", tr.seconds("rewrite.rewrite"), "s")
	b.layer("trace.capture_s", tr.seconds("trace.capture"), "s")
	b.layer("trace.capture_mrec_per_s", rate(float64(captureRecs)/1e6, tr.seconds("trace.capture")), "Mrec/s")
	b.layer("trace.captures", float64(captures), "count")
	if simulate {
		b.layer("uarch.ipc_baseline", sum(base).IPC(), "ratio")
		b.layer("uarch.ipc_minigraph", sum(mg).IPC(), "ratio")
		b.layer("uarch.mg_speedup_gmean", stats.GeoMean(speedups), "ratio")
	}
	return speedups, nil
}

// sum adds up the simulated counts of results.
func sum(results []*uarch.Result) *uarch.Result {
	var t uarch.Result
	for _, r := range results {
		t.Cycles += r.Cycles
		t.Retired += r.Retired
		t.StallROB += r.StallROB
		t.StallIQ += r.StallIQ
		t.StallLSQ += r.StallLSQ
		t.StallRegs += r.StallRegs
		t.Mispredicts += r.Mispredicts
		t.L1DMisses += r.L1DMisses
		t.MGReplays += r.MGReplays
	}
	return &t
}

// uarchLayers records the uarch layer of a traced unit: the simulated
// counts summed over results (they repeat exactly for the same arms), and
// the host time simSeconds the simulations took, with allocs heap
// allocations over all of them.
func (b *bench) uarchLayers(results []*uarch.Result, simSeconds, allocs float64) {
	all := sum(results)
	b.layer("uarch.sim_s", simSeconds, "s")
	b.layer("uarch.minst_per_s", rate(float64(all.Retired)/1e6, simSeconds), "Minst/s")
	b.layer("uarch.allocs_per_arm", allocs/float64(max(len(results), 1)), "count")
	b.layer("uarch.cycles", float64(all.Cycles), "cycles")
	b.layer("uarch.retired", float64(all.Retired), "count")
	b.layer("uarch.stall_rob", float64(all.StallROB), "count")
	b.layer("uarch.stall_iq", float64(all.StallIQ), "count")
	b.layer("uarch.stall_lsq", float64(all.StallLSQ), "count")
	b.layer("uarch.stall_regs", float64(all.StallRegs), "count")
	b.layer("uarch.mispredicts", float64(all.Mispredicts), "count")
	b.layer("uarch.l1d_misses", float64(all.L1DMisses), "count")
	b.layer("uarch.mg_replays", float64(all.MGReplays), "count")
}

// rate divides, returning 0 for an empty interval.
func rate(n, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return n / seconds
}
