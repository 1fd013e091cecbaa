package crashtest

import (
	"testing"

	"flit/internal/core"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

func newDLStore(t *testing.T, policy string, mode dstruct.Mode) *store.Store {
	t.Helper()
	st, err := NewDLStore(policy, mode)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The enumerated battery runs one body in every session mode, each mode
// under its own top-level test like the round battery.

// TestStoreDLEnumerated is the service-level systematic battery over
// Direct sessions. It runs the same cells as the other modes, but names
// FliT-HT's by durability mode alone.
func TestStoreDLEnumerated(t *testing.T) {
	for _, dmode := range dstruct.Modes {
		t.Run(dmode.String(), func(t *testing.T) { testStoreDLCell(t, store.Direct, core.PolicyHT, dmode) })
	}
	for _, policy := range dlPolicies[1:] {
		t.Run(policy, func(t *testing.T) { testStoreDLCell(t, store.Direct, policy, dstruct.Automatic) })
	}
}

// TestStoreBatchedDL enumerates the batched path — the boundaries the
// server's ack rule rests on: a response only ever follows its batch's
// commit fence, so no checked boundary may lose an acknowledged op.
func TestStoreBatchedDL(t *testing.T) { testStoreDL(t, store.Batched) }

// TestStoreCombinedDL enumerates the combining path. Concurrent
// sessions' vectors merge into shared combiner windows, so the
// boundaries include executed-but-unfenced operations from several
// announcers at once.
func TestStoreCombinedDL(t *testing.T) { testStoreDL(t, store.Combined) }

// dlPolicies are the policies every session mode is enumerated under;
// FliT-HT (first) runs under every durability mode, the rest under
// Automatic.
var dlPolicies = []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyIz, core.PolicyLAP}

// testStoreDL runs every cell of one session mode, one subtest per policy.
func testStoreDL(t *testing.T, mode store.SessionMode) {
	for _, policy := range dlPolicies {
		modes := []dstruct.Mode{dstruct.Automatic}
		if policy == core.PolicyHT {
			modes = dstruct.Modes
		}
		t.Run(policy, func(t *testing.T) {
			for _, dmode := range modes {
				testStoreDLCell(t, mode, policy, dmode)
			}
		})
	}
}

// testStoreDLCell checks every (budgeted) persist boundary of recorded
// executions through sessions of one mode, recovered through the
// superblock probe and shard-parallel rebuild, for one policy and
// durability mode.
func testStoreDLCell(t *testing.T, mode store.SessionMode, policy string, dmode dstruct.Mode) {
	budget := 0 // every boundary
	seeds := []int64{1, 2}
	if testing.Short() {
		budget = 64
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		st := newDLStore(t, policy, dmode)
		opts := dlcheck.DefaultOptions(seed)
		opts.Budget = budget
		rep := RunStoreDL(st, mode, opts)
		if rep.Violation != nil {
			t.Fatalf("mode %v seed %d: %v", dmode, seed, rep.Violation)
		}
		if rep.Records == 0 || rep.Points < 2 {
			t.Fatalf("mode %v seed %d: thin run: %+v", dmode, seed, rep)
		}
		if policy == core.PolicyHT && rep.LiveTags != 0 {
			t.Fatalf("mode %v seed %d: %d live tags after the run", dmode, seed, rep.LiveTags)
		}
	}
}

// The enumerated teeth: a no-persist store must fail each systematic
// battery within a few seeds — completed operations that never persisted
// show up at the first crash boundary. (The Direct row lives with
// dlcheck's own mutation tests: TestNoPersistStoreIsCaught.)
func TestStoreBatchedDLCheckerHasTeeth(t *testing.T) {
	testStoreDLTooth(t, func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return RunStoreDL(st, store.Batched, opts)
	})
}

func TestStoreCombinedDLCheckerHasTeeth(t *testing.T) {
	testStoreDLTooth(t, func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return RunStoreDL(st, store.Combined, opts)
	})
}

// TestStoreSplitDLCheckerHasTeeth gives the split enumeration its
// no-persist control: the migration must not mask lost operations.
func TestStoreSplitDLCheckerHasTeeth(t *testing.T) {
	testStoreDLTooth(t, func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return RunStoreSplitDL(st, 6, opts)
	})
}

func testStoreDLTooth(t *testing.T, run func(*store.Store, dlcheck.Options) *dlcheck.Report) {
	caught := false
	for seed := int64(1); seed <= 4 && !caught; seed++ {
		opts := dlcheck.DefaultOptions(seed)
		opts.Budget = 16
		caught = run(newDLStore(t, core.PolicyNoPersist, dstruct.Automatic), opts).Violation != nil
	}
	if !caught {
		t.Fatal("no-persist store passed the systematic battery — it has no teeth")
	}
}

// TestStructureDLEnumeratedViaTargets spot-checks the Target→dlcheck
// adapter used by flitcrash -dlcheck (the structure batteries themselves
// live with the structures, via dstest.DLCheck).
func TestStructureDLEnumeratedViaTargets(t *testing.T) {
	target := Targets()[0] // list
	cfg := mkConfig(core.NewFliT(core.NewHashTable(1<<14)), dstruct.Automatic, 1<<16)
	rep := dlcheck.RunSet(cfg, target.DL(), dlcheck.DefaultOptions(1))
	if rep.Violation != nil {
		t.Fatal(rep.Violation)
	}
	if rep.Records == 0 || rep.Fences == 0 {
		t.Fatalf("thin run: %+v", rep)
	}
}
