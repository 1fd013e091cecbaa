package store_test

import (
	"fmt"
	"testing"

	"flit/internal/core"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// TestRecoverWithStaleWatermark recovers an image that was itself
// produced by a recovery, with the pre-crash watermark — the state a
// process that died mid-recovery, before it could carry a newer
// watermark forward, resumes from. When recovery copied every chain to
// fresh memory, the second recovery's copies landed on the first one's
// chains. In-place recovery allocates nothing outside a split, so the
// stale watermark still bounds every surviving node.
//
// One shard forces every chain through one recovery goroutine.
func TestRecoverWithStaleWatermark(t *testing.T) {
	st, err := store.New(store.Options{
		Shards: 1, ExpectedKeys: 1 << 10, Buckets: 16,
		Policy: core.PolicyHT, HTBytes: 1 << 14, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const records = 500
	sess := store.Open[string](st, store.Direct)
	for i := 0; i < records; i++ {
		sess.Put(fmt.Sprintf("wm-key-%d", i), uint64(i))
	}
	staleWM := st.Heap().Watermark()

	// First crash + recovery.
	img1 := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	st1, _, err := store.Recover(pmem.NewFromImage(img1, st.Mem().Config()), staleWM, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	want := st1.Snapshot()
	if len(want) != records {
		t.Fatalf("first recovery kept %d keys, want %d", len(want), records)
	}

	// Crash again before anything new happens, and recover with the
	// STALE watermark — the state a process that died mid-recovery
	// would resume from.
	img2 := st1.Mem().CrashImage(pmem.DropUnfenced, 2)
	st2, rstats, err := store.Recover(pmem.NewFromImage(img2, st1.Mem().Config()), staleWM, st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Keys != records {
		t.Fatalf("stale-watermark recovery reported %d keys, want %d", rstats.Keys, records)
	}
	got := st2.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("stale-watermark recovery kept %d keys, want %d (rebuild clobbered ungathered chains)", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %#x = %d after stale-watermark recovery, want %d", k, got[k], v)
		}
	}
}

// recoverImage crashes st under DropUnfenced and recovers the image with
// st's watermark, failing the test on error.
func recoverImage(t *testing.T, st *store.Store) (*store.Store, store.RecoveryStats) {
	t.Helper()
	img := st.Mem().CrashImage(pmem.DropUnfenced, 1)
	st2, rs, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
	if err != nil {
		t.Fatal(err)
	}
	return st2, rs
}

// TestRecoverQuiescedWritesNothing: outside a split, recovering a
// quiesced image keeps every node where it is — no flush, no link
// rewrite, no allocation — and yields the quiesced contents.
func TestRecoverQuiescedWritesNothing(t *testing.T) {
	for _, policy := range []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyLAP} {
		t.Run(policy, func(t *testing.T) {
			st, err := store.New(store.Options{
				Shards: 4, ExpectedKeys: 1 << 11, Policy: policy, HTBytes: 1 << 14, VirtualClock: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess := store.Open[string](st, store.Direct)
			for i := 0; i < 1500; i++ {
				sess.Put(fmt.Sprintf("q-%d", i), uint64(i))
			}
			for i := 0; i < 1500; i += 3 {
				sess.Delete(fmt.Sprintf("q-%d", i))
			}
			sess.Close()
			want := st.Snapshot()
			wm := st.Heap().Watermark()

			st2, rs := recoverImage(t, st)
			if got := st2.Heap().Watermark(); got != wm {
				t.Errorf("recovery moved the watermark %d -> %d: it allocated", wm, got)
			}
			if pwbs := st2.Mem().TotalStats().PWBs; pwbs != 0 {
				t.Errorf("recovery of a quiesced image issued %d PWBs, want 0", pwbs)
			}
			if rs.Relinked != 0 || rs.Moved != 0 {
				t.Errorf("recovery of a quiesced image relinked %d links and moved %d keys, want 0/0", rs.Relinked, rs.Moved)
			}
			got := st2.Snapshot()
			if len(got) != len(want) || rs.Keys != len(want) {
				t.Fatalf("recovered %d keys (stats %d), quiesced store had %d", len(got), rs.Keys, len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("key %#x = %d after recovery, want %d", k, got[k], v)
				}
			}
		})
	}
}

// TestRecoverResetsAdjacentCounters: under flit-adjacent a counter
// shares its data word's line, so a line drained mid-p-store persists the
// counter at 1. Recovery keeps those words, so it must zero their
// counters, or every later p-load of them flushes: a Get-only pass over a
// recovered store must issue no PWB.
func TestRecoverResetsAdjacentCounters(t *testing.T) {
	st, err := store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 11, Policy: core.PolicyAdjacent, VirtualClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const keys = 2000
	sess := store.Open[string](st, store.Direct)
	for i := 0; i < keys; i++ {
		sess.Put(fmt.Sprintf("adj-%d", i), uint64(i))
	}
	sess.Close()

	st2, _ := recoverImage(t, st)
	get := store.Open[string](st2, store.Direct)
	defer get.Close()
	before := st2.Mem().TotalStats().PWBs
	for i := 0; i < keys; i++ {
		if v, ok := get.Get(fmt.Sprintf("adj-%d", i)); !ok || v != uint64(i) {
			t.Fatalf("Get(adj-%d) = (%d,%v) after recovery", i, v, ok)
		}
	}
	if pwbs := st2.Mem().TotalStats().PWBs - before; pwbs != 0 {
		t.Fatalf("%d Gets after recovery issued %d PWBs, want 0 (stale flit-counters survived recovery)", keys, pwbs)
	}
}

// TestRecoverNeedsNoSpareHeap fills a default-sized store past the point
// where recovery used to run out of simulated memory (it copied the whole
// live set, needing a second heap's worth of room) and recovers it.
func TestRecoverNeedsNoSpareHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 250K keys")
	}
	st, err := store.New(store.Options{VirtualClock: true})
	if err != nil {
		t.Fatal(err)
	}
	const records = 250_000
	workload.Load(st, records, 2)
	wm := st.Heap().Watermark()
	st2, rs := recoverImage(t, st)
	if rs.Keys != records {
		t.Fatalf("recovered %d keys, want %d", rs.Keys, records)
	}
	if got := st2.Heap().Watermark(); got != wm {
		t.Fatalf("recovery moved the watermark %d -> %d", wm, got)
	}
}
