package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"

	"minigraph/internal/experiments"
	"minigraph/internal/sim"
	"minigraph/internal/workload"
)

// reproduceFigures reproduces Figure 5 and then Figure 6 over benches
// through internal/experiments, cold, on a fresh engine with no store: the
// work of `mgbench -exp fig5` and `mgbench -exp fig6` for that benchmark
// set. It records the experiments layer, counts one operation per
// benchmark, and fails each one whose fig5 and fig6 rows differ from
// testdata/golden/fig5.json and fig6.json. It returns Figure 6's
// per-benchmark rows.
func reproduceFigures(ctx context.Context, b *bench, tr *tracer, benches []string) ([]experiments.PerfRow, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	opts := experiments.DefaultOptions()
	opts.Benchmarks = benches
	opts.Engine = sim.New(0)
	opts.Context = ctx
	s := tr.begin("experiments.fig5", -1)
	a5, _, err := experiments.Fig5(opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("experiments.fig6", -1)
	a6, perf, err := experiments.Fig6(opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	b.layer("experiments.fig5_s", tr.seconds("experiments.fig5"), "s")
	b.layer("experiments.fig6_s", tr.seconds("experiments.fig6"), "s")
	b.attempted += len(benches)
	for _, name := range benches {
		got := slices.Concat(rowsOf(a5.Report.Rows, name), rowsOf(a6.Report.Rows, name))
		b.check(reflect.DeepEqual(got, golden[name]), "figures: %s rows differ from testdata/golden/fig5.json and fig6.json", name)
	}
	return perf, nil
}

// rowsOf returns bench's rows in report order.
func rowsOf(rows []sim.Row, bench string) []sim.Row {
	var out []sim.Row
	for _, r := range rows {
		if r.Bench == bench {
			out = append(out, r)
		}
	}
	return out
}

// loadGolden reads the Figure 5 and Figure 6 fixtures and groups their
// per-benchmark rows by benchmark (aggregate rows depend on the benchmark
// set and are skipped).
func loadGolden() (map[string][]sim.Row, error) {
	out := map[string][]sim.Row{}
	for _, id := range []string{"fig5", "fig6"} {
		data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".json"))
		if err != nil {
			return nil, fmt.Errorf("golden fixture: %w", err)
		}
		var rep sim.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("golden fixture %s: %w", id, err)
		}
		for _, r := range rep.Rows {
			if r.Bench != "" {
				out[r.Bench] = append(out[r.Bench], r)
			}
		}
	}
	for _, name := range workload.BenchSubset() {
		if len(out[name]) == 0 {
			return nil, fmt.Errorf("golden fixtures have no rows for %s", name)
		}
	}
	return out, nil
}

// simLayers records the engine counters of a traced pass (the engine is
// fresh, so totals are deltas) and the median completion time of a
// submitted batch's jobs.
func (b *bench) simLayers(st sim.Stats, doneMS []float64) {
	b.layer("sim.prepare_runs", float64(st.PrepareRuns), "count")
	b.layer("sim.sim_runs", float64(st.SimRuns), "count")
	b.layer("sim.sim_hits", float64(st.SimHits), "count")
	b.layer("sim.trace_captures", float64(st.TraceCaptures), "count")
	b.layer("sim.trace_replay_hits", float64(st.TraceReplayHits), "count")
	b.layer("sim.trace_store_hits", float64(st.TraceStoreHits), "count")
	b.layer("sim.arm_p50_ms", median(doneMS), "ms")
	b.layer("trace.chunk_faults", float64(st.TraceChunkFaults), "count")
	b.layer("trace.chunk_evictions", float64(st.TraceChunkEvictions), "count")
	b.layer("trace.window_peak_bytes", float64(st.TraceChunkWindowPeakBytes), "bytes")
}
