package progen

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"minigraph/internal/core"
	"minigraph/internal/emu"
	"minigraph/internal/rewrite"
	"minigraph/internal/sim"
	"minigraph/internal/uarch"
	"minigraph/internal/uarch/bpred"
	"minigraph/internal/uarch/prefetch"
	"minigraph/internal/workload"
)

// Mode names how records were delivered to the pipeline under test. The
// oracle runs every arm under every mode: the engine's replay path and the
// live-emulation reference (sim.SimulateLive). Divergence in exactly one
// mode pinpoints the delivery layer (trace codec, chunk window, live
// stream) rather than the pipeline.
type Mode string

// Delivery modes.
const (
	ModeReplay Mode = "replay" // the engine: capture once, per-arm replay cursors
	ModeLive   Mode = "live"   // the reference: step-by-step live emulation
)

// AllModes lists every delivery mode in canonical order.
func AllModes() []Mode { return []Mode{ModeReplay, ModeLive} }

// Arm is one point of the configuration matrix.
type Arm struct {
	Name string
	Job  sim.SimJob
}

// MGTEntries is the mini-graph table size used for extraction arms (the
// experiments' default).
const MGTEntries = 512

// Matrix returns the eight-arm configuration matrix for bench:
// {baseline, minigraph} × {hybrid, tage} × {none, delta}. The four
// minigraph arms share one TraceKey (and likewise the four baseline arms),
// so replay mode exercises one capture serving several arms. maxRecords bounds each simulation
// (0 = run to halt; generated programs always halt).
func Matrix(bench string, maxRecords int64) []Arm {
	arms := make([]Arm, 0, 8)
	for _, base := range []bool{true, false} {
		for _, pred := range []string{bpred.KindHybrid, bpred.KindTAGE} {
			for _, pf := range []string{prefetch.KindNone, prefetch.KindDelta} {
				cfg := uarch.Baseline()
				kind := "baseline"
				if !base {
					cfg = uarch.MiniGraph(true)
					kind = "minigraph"
				}
				if pred == bpred.KindTAGE {
					cfg.BPred = bpred.TageConfig()
				}
				if pf == prefetch.KindDelta {
					cfg.Prefetcher = prefetch.DefaultDelta()
				}
				cfg.MaxRecords = maxRecords
				name := fmt.Sprintf("%s/%s/%s", kind, pred, pf)
				cfg.Name = name
				job := sim.SimJob{
					Prepare:  sim.PrepareKey{Bench: bench, Input: workload.InputTrain},
					Baseline: base,
					Config:   cfg,
				}
				if !base {
					job.Policy = core.DefaultPolicy()
					job.Entries = MGTEntries
					job.Compress = true
				}
				arms = append(arms, Arm{Name: name, Job: job})
			}
		}
	}
	return arms
}

// Divergence describes one oracle failure with everything needed to
// reproduce it: the seed regenerates the program, the arm and mode name
// the configuration and delivery path.
type Divergence struct {
	Seed   int64
	Arm    string
	Mode   Mode
	Detail string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("progen: DIVERGENCE seed=%d arm=%s mode=%s: %s (reproduce: mgdiff -seed %d)",
		d.Seed, d.Arm, d.Mode, d.Detail, d.Seed)
}

// DiffSeed generates seed's program and checks the full oracle for it,
// replaying through eng and comparing against the live reference. Sharing
// one engine across many seeds amortises nothing between seeds (keys embed
// the seed's name) but mirrors how a long-lived service would run.
//
//  1. Per arm × mode, the pipeline's retired-state digest must equal the
//     functional emulator's digest over the same binary, and the retired
//     record count must equal the emulator's.
//  2. Across modes, each arm's encoded outcome must be byte-identical —
//     live and replay delivery must be indistinguishable.
//  3. Across binaries, the rewritten program's final memory image must
//     equal the original's (the transparency claim; registers may
//     legitimately differ where rewriting elides dead interior writes).
//
// A nil error means the seed passed every check.
func DiffSeed(ctx context.Context, eng *sim.Engine, seed int64, maxRecords int64) error {
	bench, err := RegisterSeed(seed)
	if err != nil {
		return err
	}
	arms := Matrix(bench, maxRecords)

	// Emulator references, one per trace identity (baseline + rewritten).
	pr, err := eng.Prepare(ctx, sim.PrepareKey{Bench: bench, Input: workload.InputTrain})
	if err != nil {
		return fmt.Errorf("progen: seed %d: prepare: %w", seed, err)
	}
	limit := maxRecords
	if limit <= 0 {
		limit = math.MaxInt64
	}
	baseRef, err := emu.RunToCompletion(pr.Prog, nil, limit)
	if err != nil {
		return fmt.Errorf("progen: seed %d: baseline emu: %w", seed, err)
	}
	var mgRef *emu.FinalState
	for _, a := range arms {
		if a.Job.Baseline {
			continue
		}
		sel := core.Extract(pr.CFG, pr.Live, pr.Prof, a.Job.Policy, a.Job.Entries)
		res, err := rewrite.Rewrite(pr.Prog, sel, a.Job.Compress)
		if err != nil {
			return fmt.Errorf("progen: seed %d: rewrite: %w", seed, err)
		}
		mgt := core.NewMGT(res.Templates, sim.ExecParams(a.Job.Config))
		mgRef, err = emu.RunToCompletion(res.Prog, mgt, limit)
		if err != nil {
			return &Divergence{Seed: seed, Arm: a.Name, Mode: "emu",
				Detail: fmt.Sprintf("rewritten program faulted: %v", err)}
		}
		break // one rewrite serves all four minigraph arms (shared TraceKey)
	}
	if mgRef != nil {
		if baseRef.Halted != mgRef.Halted || baseRef.MemSum != mgRef.MemSum {
			return &Divergence{Seed: seed, Arm: "minigraph", Mode: "emu",
				Detail: fmt.Sprintf("transparency: halted %v vs %v, memsum %#x vs %#x",
					baseRef.Halted, mgRef.Halted, baseRef.MemSum, mgRef.MemSum)}
		}
	}

	refFor := func(a *Arm) *emu.FinalState {
		if a.Job.Baseline {
			return baseRef
		}
		return mgRef
	}

	// Run the whole matrix under each mode: through the engine, where the
	// arms sharing a TraceKey replay one capture concurrently, and through
	// the live reference, one arm at a time.
	jobs := make([]sim.SimJob, len(arms))
	for i := range arms {
		jobs[i] = arms[i].Job
	}
	replayed, err := eng.Run(ctx, jobs)
	if err != nil {
		return fmt.Errorf("progen: seed %d mode %s: %w", seed, ModeReplay, err)
	}
	live := make([]*sim.Outcome, len(jobs))
	for i, job := range jobs {
		if live[i], err = sim.SimulateLive(ctx, pr, job); err != nil {
			return fmt.Errorf("progen: seed %d mode %s: %w", seed, ModeLive, err)
		}
	}
	byMode := map[Mode][]*sim.Outcome{ModeReplay: replayed, ModeLive: live}
	encoded := make(map[Mode][][]byte)
	for _, m := range AllModes() {
		outs := byMode[m]
		enc := make([][]byte, len(arms))
		for i, out := range outs {
			a := &arms[i]
			ref := refFor(a)
			if out.Result.RetiredDigest != uint64(ref.Digest) {
				return &Divergence{Seed: seed, Arm: a.Name, Mode: m,
					Detail: fmt.Sprintf("retired digest %#x, emulator digest %#x",
						out.Result.RetiredDigest, uint64(ref.Digest))}
			}
			if out.Result.Retired != ref.InstCount {
				return &Divergence{Seed: seed, Arm: a.Name, Mode: m,
					Detail: fmt.Sprintf("retired %d records, emulator executed %d",
						out.Result.Retired, ref.InstCount)}
			}
			if enc[i], err = sim.EncodeOutcome(out); err != nil {
				return fmt.Errorf("progen: seed %d: encode: %w", seed, err)
			}
		}
		encoded[m] = enc
	}

	// Cross-mode: replay must reproduce the live reference byte for byte.
	for i := range arms {
		if !bytes.Equal(encoded[ModeReplay][i], encoded[ModeLive][i]) {
			return &Divergence{Seed: seed, Arm: arms[i].Name, Mode: ModeReplay,
				Detail: fmt.Sprintf("outcome differs from mode %s", ModeLive)}
		}
	}
	return nil
}

// DiffSeeds checks seeds sequentially against a shared engine,
// stopping at the first failure. onPass, when non-nil, fires after each
// passing seed (progress reporting).
func DiffSeeds(ctx context.Context, eng *sim.Engine, seeds []int64, maxRecords int64, onPass func(seed int64)) error {
	for _, s := range seeds {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := DiffSeed(ctx, eng, s, maxRecords); err != nil {
			return err
		}
		if onPass != nil {
			onPass(s)
		}
	}
	return nil
}
