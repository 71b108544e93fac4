package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// initLayers records every per-layer metric BENCHMARK.json lists (read
// from the checkout root) as 0, with its unit, before the traced run fills
// in what the workload measures: each traced run reports all of them, and
// a layer the workload does not exercise reads 0 (the sweep workload has
// no store, no chunk window and no HTTP tier).
func (b *bench) initLayers() error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.PerLayer) == 0 {
		return fmt.Errorf("BENCHMARK.json lists no per_layer metrics")
	}
	b.layerUnits = map[string]string{}
	for _, m := range spec.PerLayer {
		b.layerUnits[m.Name] = m.Unit
		b.layer(m.Name, 0, m.Unit)
	}
	return nil
}

// checkLayers fails the run if it recorded a per-layer metric that
// BENCHMARK.json does not list, or with a different unit.
func (b *bench) checkLayers() error {
	for name, m := range b.layers {
		if unit, ok := b.layerUnits[name]; !ok || unit != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not in BENCHMARK.json as such", name, m.Unit)
		}
	}
	return nil
}

// predictions are the CPU splits README.md predicts for each workload's
// traced run; the run prints whether its profile bears each one out.
var predictions = map[string]struct {
	claim string
	holds func(share func(string) float64) bool
}{
	"sweep": {"cpu.uarch is the largest share", func(s func(string) float64) bool {
		for _, m := range cpuModules {
			if m != "uarch" && s(m) >= s("uarch") {
				return false
			}
		}
		return true
	}},
	"serve": {"cpu.trace + cpu.store + cpu.sha256 + cpu.json > cpu.uarch", func(s func(string) float64) bool {
		return s("trace")+s("store")+s("sha256")+s("json") > s("uarch")
	}},
}

// reportPrediction prints whether the traced run's CPU shares bear out
// the workload's predicted split.
func (b *bench) reportPrediction() {
	p := predictions[b.workload]
	verdict := "does not hold"
	if p.holds(func(m string) float64 { return b.layers["cpu."+m].Value }) {
		verdict = "holds"
	}
	fmt.Printf("perfbench: %s prediction %q %s\n", b.workload, p.claim, verdict)
}
