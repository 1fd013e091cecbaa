package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
)

// TestStoreCombinedAddsCrashSafety is the net-delta battery: windows of
// ±1 deltas over a few hot counters, crash countdowns on the combiner
// threads, and the interval check — every recovered counter must equal
// the acknowledged net plus some subset of the pending deltas. This is
// the crash-safety contract the coalescing elision must honor: skipping
// the store for a self-cancelling window is legal only because the
// acknowledged net really is zero.
func TestStoreCombinedAddsCrashSafety(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:3]
	}
	crashModes := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset, pmem.PersistAll}
	policies := []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyLAP}
	if testing.Short() {
		policies = policies[:2]
	}
	crashes := 0
	for _, policy := range policies {
		t.Run(policy, func(t *testing.T) {
			for _, cm := range crashModes {
				for _, seed := range seeds {
					st := newCrashStore(t, policy)
					opts := DefaultStoreOptions(seed, cm)
					// Coalescing collapses a whole round's adds into ~100
					// instrumented instructions per combiner thread;
					// tighten the countdowns so crashes still land mid-run.
					opts.MinCrash, opts.MaxCrash = 10, 150
					verdict, err := RunStoreCombinedAdds(st, opts, 16, 4, false)
					if err != nil {
						t.Fatal(err)
					}
					if verdict.Violation != nil {
						t.Fatalf("crash mode %v seed %d: %v", cm, seed, verdict.Violation)
					}
					crashes += verdict.Crashed
				}
			}
		})
	}
	if !testing.Short() && crashes == 0 {
		t.Fatal("no round crashed mid-run: the adds battery exercised no crash point")
	}
}

// TestStoreCombinedAddsCheckerHasTeeth: biased (+1-only) traffic through
// a no-persist store drifts every acknowledged counter upward while the
// image retains nothing — the interval check must reject it.
func TestStoreCombinedAddsCheckerHasTeeth(t *testing.T) {
	caught := false
	for seed := int64(1); seed <= 4 && !caught; seed++ {
		st := newCrashStore(t, core.PolicyNoPersist)
		opts := DefaultStoreOptions(seed, pmem.DropUnfenced)
		opts.MinCrash, opts.MaxCrash = 10, 150
		verdict, err := RunStoreCombinedAdds(st, opts, 16, 4, true)
		if err != nil {
			t.Fatal(err)
		}
		caught = verdict.Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the net-delta battery — it has no teeth")
	}
}
