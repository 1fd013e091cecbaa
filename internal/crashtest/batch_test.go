package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

// TestStoreBatchedFencesAmortized: the batched path must actually
// batch — the same recorded op budget issues fewer PFence instructions
// (and no more PWBs) through group commit than through per-op
// persistence. Single-worker, so the comparison is deterministic:
// with concurrency, readers of another batch's in-flight (tagged)
// stores legitimately pay extra flushes, which only the macro
// benchmarks can weigh against the dedup wins.
func TestStoreBatchedFencesAmortized(t *testing.T) {
	opts := dlcheck.Options{Workers: 1, OpsPerWorker: 54, Seed: 1, Budget: 2}

	stPer, err := NewDLStore(core.PolicyHT, dstruct.Automatic)
	if err != nil {
		t.Fatal(err)
	}
	per := RunStoreDL(stPer, store.Direct, opts)
	if per.Violation != nil {
		t.Fatal(per.Violation)
	}
	perStats := stPer.Mem().TotalStats()

	stBat, err := NewDLStore(core.PolicyHT, dstruct.Automatic)
	if err != nil {
		t.Fatal(err)
	}
	bat := RunStoreDL(stBat, store.Batched, opts)
	if bat.Violation != nil {
		t.Fatal(bat.Violation)
	}
	batStats := stBat.Mem().TotalStats()

	if batStats.PFences >= perStats.PFences {
		t.Fatalf("batched path issued %d fences, per-op path %d: group commit is not amortizing",
			batStats.PFences, perStats.PFences)
	}
	if batStats.PWBs > perStats.PWBs {
		t.Fatalf("batched path issued %d PWBs, per-op path %d: deferral added flushes",
			batStats.PWBs, perStats.PWBs)
	}
}
