package store

import (
	"fmt"
	"sync"
	"testing"

	"flit/internal/pmem"
)

// TestSplitLiveUnderTraffic grows a store 4→6 shards while concurrent
// Direct sessions keep reading and writing. After the migration drains,
// every key must be present exactly once with its latest value, routed
// through the post-split layout.
func TestSplitLiveUnderTraffic(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4, ExpectedKeys: 1 << 11})
	const keys = 512

	seed := Open[string](st, Direct)
	for k := 0; k < keys; k++ {
		seed.Put(fmt.Sprintf("split-%d", k), uint64(k))
	}
	seed.Close()

	const workers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := Open[string](st, Direct)
			defer sess.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w*131 + i) % keys
				key := fmt.Sprintf("split-%d", k)
				if i%3 == 0 {
					sess.Put(key, uint64(k)) // rewrite the canonical value
				} else if v, ok := sess.Get(key); ok && v != uint64(k) {
					panic(fmt.Sprintf("mid-split read of %s = %d, want %d", key, v, k))
				}
			}
		}(w)
	}

	if err := st.Split(6); err != nil {
		t.Fatal(err)
	}
	if !st.WaitSplit() {
		t.Fatal("migration crashed without a crash armed")
	}
	close(stop)
	wg.Wait()

	if n := st.NumShards(); n != 6 {
		t.Fatalf("NumShards after split = %d, want 6", n)
	}
	if ss := st.SplitStat(); ss.Active {
		t.Fatalf("SplitStat still active after WaitSplit: %+v", ss)
	}
	snap := st.Snapshot()
	if len(snap) != keys {
		t.Fatalf("post-split snapshot has %d keys, want %d", len(snap), keys)
	}
	check := Open[string](st, Direct)
	defer check.Close()
	for k := 0; k < keys; k++ {
		if v, ok := check.Get(fmt.Sprintf("split-%d", k)); !ok || v != uint64(k) {
			t.Fatalf("post-split Get(split-%d) = (%d,%v), want (%d,true)", k, v, ok, k)
		}
	}
}

// TestSplitThenRecover: a crash image taken after a completed split must
// recover the post-split geometry with the full keyspace.
func TestSplitThenRecover(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4, ExpectedKeys: 1 << 11})
	const keys = 300
	sess := Open[string](st, Direct)
	for k := 0; k < keys; k++ {
		sess.Put(fmt.Sprintf("sr-%d", k), uint64(k)*3)
	}
	if err := st.Split(6); err != nil {
		t.Fatal(err)
	}
	if !st.WaitSplit() {
		t.Fatal("migration crashed")
	}
	sess.Close()

	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	st2, rstats, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.NumShards(); n != 6 {
		t.Fatalf("recovered NumShards = %d, want 6", n)
	}
	if rstats.Keys != keys {
		t.Fatalf("recovery found %d keys, want %d", rstats.Keys, keys)
	}
	check := Open[string](st2, Direct)
	defer check.Close()
	for k := 0; k < keys; k++ {
		if v, ok := check.Get(fmt.Sprintf("sr-%d", k)); !ok || v != uint64(k)*3 {
			t.Fatalf("recovered Get(sr-%d) = (%d,%v), want (%d,true)", k, v, ok, k*3)
		}
	}
}

// TestSplitCrashMidMigrationRecovers: kill the migrator at an arbitrary
// point mid-migration (a global crash arm catches it between two of its
// persist instructions), then recover from the crash image: the split
// must complete during recovery with a complete, duplicate-free
// keyspace. The exhaustive every-boundary version of this test is the
// flitcrash store-split battery (see EXPERIMENTS.md).
func TestSplitCrashMidMigrationRecovers(t *testing.T) {
	const keys = 300
	// The migrator runs in its own goroutine and may finish before the
	// crash is armed (a descheduled test goroutine on a loaded host);
	// such an attempt is discarded and retried on a fresh store.
	var st *Store
	for attempt := 0; ; attempt++ {
		if attempt == 50 {
			t.Fatal("migration completed despite an armed crash in every attempt")
		}
		st = newTestStore(t, Options{Shards: 4, ExpectedKeys: 1 << 11})
		sess := Open[string](st, Direct)
		for k := 0; k < keys; k++ {
			sess.Put(fmt.Sprintf("mc-%d", k), uint64(k)+7)
		}
		sess.Close()

		if err := st.Split(6); err != nil {
			t.Fatal(err)
		}
		st.Mem().ArmCrash() // every thread, including the migrator, dies at its next instruction
		if !st.WaitSplit() {
			break
		}
		st.Mem().DisarmCrash()
	}
	if !st.SplitStat().Crashed {
		t.Fatal("SplitStat does not report the crashed migration")
	}
	img := st.Mem().CrashImage(pmem.DropUnfenced, 42)
	st.Mem().DisarmCrash()

	st2, rstats, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if n := st2.NumShards(); n != 6 {
		t.Fatalf("recovered NumShards = %d, want 6 (split must complete at recovery)", n)
	}
	if rstats.Keys != keys {
		t.Fatalf("recovery found %d keys, want %d (lost or duplicated mid-split)", rstats.Keys, keys)
	}
	check := Open[string](st2, Direct)
	defer check.Close()
	for k := 0; k < keys; k++ {
		if v, ok := check.Get(fmt.Sprintf("mc-%d", k)); !ok || v != uint64(k)+7 {
			t.Fatalf("recovered Get(mc-%d) = (%d,%v), want (%d,true)", k, v, ok, k+7)
		}
	}
}

// TestSplitErrors covers the refusal cases: shrinking or no-op targets,
// targets beyond MaxShards, splitting while a migration is in flight,
// and splitting a store that has combined sessions.
func TestSplitErrors(t *testing.T) {
	st := newTestStore(t, Options{Shards: 4})
	if err := st.Split(4); err == nil {
		t.Fatal("Split(4) on a 4-shard store did not error")
	}
	if err := st.Split(2); err == nil {
		t.Fatal("shrinking Split did not error")
	}
	if err := st.Split(MaxShards + 1); err == nil {
		t.Fatal("Split beyond MaxShards did not error")
	}

	sess := Open[string](st, Direct)
	for k := 0; k < 2000; k++ {
		sess.Put(fmt.Sprintf("e-%d", k), uint64(k))
	}
	if err := st.Split(6); err != nil {
		t.Fatal(err)
	}
	if err := st.Split(8); err == nil {
		// The first migration may already have drained on a fast machine;
		// only a concurrent second split is an error.
		if st.SplitStat().Active {
			t.Fatal("concurrent Split did not error")
		}
	}
	st.WaitSplit()
	sess.Close()

	st2 := newTestStore(t, Options{Shards: 4})
	comb := Open[string](st2, Combined)
	if err := st2.Split(6); err == nil {
		t.Fatal("Split with combined sessions did not error")
	}
	comb.Close()
}

// TestSplitChainsAcrossGenerations: a second split after the first has
// drained must work, including re-anchoring the shards the first split
// created (their anchors move to the new directory).
func TestSplitChainsAcrossGenerations(t *testing.T) {
	st := newTestStore(t, Options{Shards: 2, ExpectedKeys: 1 << 10})
	const keys = 200
	sess := Open[string](st, Direct)
	for k := 0; k < keys; k++ {
		sess.Put(fmt.Sprintf("g-%d", k), uint64(k))
	}
	for _, target := range []int{3, 5} {
		if err := st.Split(target); err != nil {
			t.Fatalf("Split(%d): %v", target, err)
		}
		if !st.WaitSplit() {
			t.Fatalf("Split(%d) migration crashed", target)
		}
	}
	sess.Close()
	if n := st.NumShards(); n != 5 {
		t.Fatalf("NumShards after chained splits = %d, want 5", n)
	}

	// Both generations of grown shards must survive a recovery.
	img := st.Mem().CrashImage(pmem.DropUnfenced, 7)
	st2, rstats, err := Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumShards() != 5 || rstats.Keys != keys {
		t.Fatalf("recovered shards=%d keys=%d, want 5/%d", st2.NumShards(), rstats.Keys, keys)
	}
	check := Open[string](st2, Direct)
	defer check.Close()
	for k := 0; k < keys; k++ {
		if v, ok := check.Get(fmt.Sprintf("g-%d", k)); !ok || v != uint64(k) {
			t.Fatalf("chained-split recovery lost g-%d: (%d,%v)", k, v, ok)
		}
	}
}
