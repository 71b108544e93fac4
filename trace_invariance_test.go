// Trace golden-invariance tests: the engine's capture-once/replay-many
// path must be observationally indistinguishable from live step-by-step
// emulation. TestReplayMatchesLiveStream times real experiment arms both
// ways and diffs the encoded outcomes byte for byte — the strongest
// statement that timing is independent of how records are delivered.
package minigraph_test

import (
	"bytes"
	"context"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/experiments"
	"minigraph/internal/sim"
	"minigraph/internal/uarch"
	"minigraph/internal/workload"
)

// sweepJobs builds one machine-configuration sweep over a single rewritten
// binary: every arm shares one trace identity (same bench, policy, entries
// and record limit) and differs only in DRAM latency.
func sweepJobs(memLats []int) []sim.SimJob {
	pk := sim.PrepareKey{Bench: "sha", Input: workload.InputTrain}
	jobs := make([]sim.SimJob, 0, len(memLats))
	for _, ml := range memLats {
		cfg := uarch.MiniGraph(true)
		cfg.MemLatency = ml
		cfg.MaxRecords = 20_000
		jobs = append(jobs, sim.SimJob{
			Prepare: pk,
			Policy:  core.DefaultPolicy(),
			Entries: 512,
			Config:  cfg,
		})
	}
	return jobs
}

// TestReplayMatchesLiveStream times Figure 6's arms on one small benchmark
// through the engine's trace replay and through the live-emulation
// reference (sim.SimulateLive), and requires byte-identical encoded
// outcomes arm by arm. The arms cover baseline and mini-graph machines,
// integer and integer-memory policies, and collapsing variants, so both
// the unrewritten and rewritten capture paths are exercised.
func TestReplayMatchesLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	o := experiments.DefaultOptions()
	pk := sim.PrepareKey{Bench: "sha", Input: workload.InputTrain}
	jobs := []sim.SimJob{sim.Baseline(pk, uarch.Baseline())}
	for _, intMem := range []bool{false, true} {
		for _, collapse := range []bool{false, true} {
			pol := core.DefaultPolicy()
			pol.MaxSize = o.MaxSize
			pol.AllowMem = intMem
			cfg := uarch.MiniGraph(intMem)
			cfg.Collapse = collapse
			jobs = append(jobs, sim.SimJob{Prepare: pk, Policy: pol, Entries: o.MGTEntries, Config: cfg})
		}
	}

	eng := sim.New(0)
	replayed, err := eng.Run(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Prepare(t.Context(), pk)
	if err != nil {
		t.Fatal(err)
	}
	live := make([]*sim.Outcome, len(jobs))
	if err := eng.Each(t.Context(), len(jobs), func(ctx context.Context, i int) (err error) {
		live[i], err = sim.SimulateLive(ctx, pr, jobs[i])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		want, err := sim.EncodeOutcome(live[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.EncodeOutcome(replayed[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s (baseline=%v mem=%v collapse=%v): replay and live outcomes differ (%d vs %d bytes), first divergence near byte %d",
				job.Config.Name, job.Baseline, job.Policy.AllowMem, job.Config.Collapse, len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestTraceCacheEviction: the in-memory trace cache is byte-bounded. With
// a tiny budget every new binary evicts the previous one's trace, so a
// returning binary re-captures instead of replay-hitting — trading time
// for bounded memory in long-lived services.
func TestTraceCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	eng := sim.New(0).WithTraceCacheBytes(1)
	run := func(entries, memLat int) {
		jobs := sweepJobs([]int{memLat})
		jobs[0].Entries = entries
		if _, err := eng.Run(t.Context(), jobs); err != nil {
			t.Fatal(err)
		}
	}
	run(512, 0) // capture A
	run(256, 0) // capture B, evicts A
	run(512, 5) // new config over A: the trace was evicted, so re-capture
	if st := eng.Stats(); st.TraceCaptures != 3 {
		t.Fatalf("captures %d, want 3 (1-byte budget must evict between variants): %+v", st.TraceCaptures, st)
	}

	// A real budget keeps the working set: same sequence, zero re-captures.
	roomy := sim.New(0)
	eng = roomy
	run(512, 0)
	run(256, 0)
	run(512, 5)
	if st := roomy.Stats(); st.TraceCaptures != 2 {
		t.Fatalf("captures %d, want 2 under the default budget: %+v", st.TraceCaptures, st)
	}
}

// TestSweepSingleCapture pins the tentpole's economics: a multi-arm
// machine-configuration sweep over one rewritten binary performs exactly
// one functional emulation, and a second sweep with fresh configurations
// performs zero.
func TestSweepSingleCapture(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulations in -short mode")
	}
	eng := sim.New(0)
	outs, err := eng.Run(t.Context(), sweepJobs([]int{0, 120, 140, 160}))
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.TraceCaptures != 1 {
		t.Errorf("first sweep captured %d traces, want 1 (per-prepare emulation must happen exactly once)", st.TraceCaptures)
	}
	if st.TraceReplayHits != int64(len(outs)-1) {
		t.Errorf("first sweep replay hits %d, want %d", st.TraceReplayHits, len(outs)-1)
	}

	// Second sweep: new configurations (new SimKeys — the outcome cache
	// cannot serve them) over the same binary. Zero captures.
	if _, err := eng.Run(t.Context(), sweepJobs([]int{200, 240})); err != nil {
		t.Fatal(err)
	}
	st2 := eng.Stats()
	if st2.TraceCaptures != st.TraceCaptures {
		t.Errorf("second sweep captured %d new traces, want 0", st2.TraceCaptures-st.TraceCaptures)
	}
	if st2.TraceReplayHits <= st.TraceReplayHits {
		t.Errorf("second sweep produced no replay hits: %+v", st2)
	}
}
