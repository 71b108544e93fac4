package progen

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"minigraph/internal/sim"
)

// corpusSize is the number of seeds the full (non-short) corpus run checks.
// Each seed covers 8 configuration arms under 2 delivery modes (engine
// replay and the live reference), so the full run is 16,000 pipeline
// simulations cross-checked against the emulator.
const corpusSize = 1000

// sharedEngine hands every test and fuzz worker one replay engine. Engine
// state is keyed by benchmark name (which embeds the seed), so concurrent
// seeds never collide; sharing mirrors a long-lived service and keeps the
// corpus run fast.
var sharedEngine = sync.OnceValue(func() *sim.Engine { return sim.New(0) })

// TestDifferentialCorpus is the seeded differential oracle: every corpus
// seed must produce identical architectural state in the functional
// emulator and in every pipeline configuration under every delivery mode.
// Any divergence fails with the exact seed, arm and mode to reproduce it
// (mgdiff -seed N).
func TestDifferentialCorpus(t *testing.T) {
	n := int64(corpusSize)
	if testing.Short() {
		n = 60
	}
	eng := sharedEngine()
	ctx := context.Background()

	shards := runtime.GOMAXPROCS(0)
	if shards > 8 {
		shards = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			for seed := int64(sh); seed < n; seed += int64(shards) {
				if err := DiffSeed(ctx, eng, seed, 0); err != nil {
					errs <- err
					return
				}
			}
		}(sh)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSeed681Regression pins the seed that exposed the cross-instance
// code-motion bug in selection (see core/interfere.go): two individually
// legal mini-graphs whose composed collapses inverted a register dependence,
// silently corrupting an address computation. The full oracle must stay
// clean on it.
func TestSeed681Regression(t *testing.T) {
	if err := DiffSeed(context.Background(), sharedEngine(), 681, 0); err != nil {
		t.Fatal(err)
	}
}

// FuzzDifferential lets the fuzzer hunt for seeds whose generated programs
// diverge between the emulator and any pipeline configuration or delivery
// mode. Seed 681 is the crasher that exposed the cross-instance selection
// bug; the rest are ordinary passing seeds the fuzzer mutates from.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 681, 1337, 99991, -1, -424242} {
		f.Add(seed)
	}
	eng := sharedEngine()
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := DiffSeed(context.Background(), eng, seed, 0); err != nil {
			t.Fatal(err)
		}
	})
}
