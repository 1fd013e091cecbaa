package crashtest

import (
	"fmt"
	"sync/atomic"
	"testing"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// recoverEveryPrefix recovers img once under a persist tracer, then
// recovers again from every crash image inside that recovery — the base
// image plus each prefix of the lines its fences drained, the same
// crash-point model dlcheck enumerates — and requires each to yield the
// full recovery's contents, no key lost or duplicated. The re-recoveries
// carry the watermark the full recovery reached, as a process must carry
// any allocation across a crash.
func recoverEveryPrefix(t *testing.T, st *store.Store, img []uint64, wm uint64) store.RecoveryStats {
	t.Helper()
	cfg := st.Mem().Config()
	mem := pmem.NewFromImage(img, cfg)
	var clock atomic.Int64
	tr := mem.StartTrace(func() int64 { return clock.Add(1) })
	st1, rs, err := store.Recover(mem, wm, st.Opts())
	mem.StopTrace()
	if err != nil {
		t.Fatal(err)
	}
	want := st1.Snapshot()
	if rs.Keys != len(want) {
		t.Fatalf("full recovery reports %d keys, holds %d", rs.Keys, len(want))
	}
	wm1 := st1.Heap().Watermark()
	recs := tr.Records()
	cur := append([]uint64(nil), img...)
	for k := 0; k <= len(recs); k++ {
		if k > 0 {
			pmem.ApplyRecord(cur, recs[k-1])
		}
		st2, rs2, err := store.Recover(pmem.NewFromImage(cur, cfg), wm1, st.Opts())
		if err != nil {
			t.Fatalf("crash after %d of %d recovery persists: %v", k, len(recs), err)
		}
		got := st2.Snapshot()
		if rs2.Keys != len(want) || len(got) != len(want) {
			t.Fatalf("crash after %d of %d recovery persists: %d keys (stats %d), full recovery %d", k, len(recs), len(got), rs2.Keys, len(want))
		}
		for key, v := range want {
			if g, ok := got[key]; !ok || g != v {
				t.Fatalf("crash after %d of %d recovery persists: key %#x = (%d,%v), full recovery %d", k, len(recs), key, g, ok, v)
			}
		}
	}
	return rs
}

// TestStoreCrashInsideRecoveryTorn crashes at every persist inside the
// recovery of a torn image holding deleted-but-linked nodes, the image
// whose recovery rewrites links. The session's crash point is stepped
// until the image holds such a node.
func TestStoreCrashInsideRecoveryTorn(t *testing.T) {
	for crashAfter := int64(300); crashAfter < 800; crashAfter++ {
		st := newCrashStore(t, core.PolicyHT)
		workload.Load(st, 200, 1)
		sess := store.Open[string](st, store.Direct)
		sess.Thread().SetCrashAfter(crashAfter)
		pmem.RunToCrash(func() {
			for i := 0; ; i++ {
				key := workload.Key(uint64(i % 300))
				if i%3 == 0 {
					sess.Delete(key)
				} else {
					sess.Put(key, uint64(i))
				}
			}
		})
		img := st.Mem().CrashImage(pmem.RandomSubset, crashAfter)
		_, rs, err := store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
		if err != nil {
			t.Fatal(err)
		}
		if rs.Relinked > 0 {
			recoverEveryPrefix(t, st, img, st.Heap().Watermark())
			return
		}
	}
	t.Fatal("no torn image held a deleted-but-linked node: the test never exercised a relink")
}

// TestStoreCrashInsideRecoveryMidSplit crashes at every persist inside
// the recovery of an image taken in the middle of a shard split, whose
// recovery copies moved keys into their target shards before dropping
// the stale originals.
func TestStoreCrashInsideRecoveryMidSplit(t *testing.T) {
	st, img := crashMidSplit(t)
	rs := recoverEveryPrefix(t, st, img, st.Heap().Watermark())
	if rs.Keys != 200 {
		t.Fatalf("mid-split recovery kept %d keys, want 200", rs.Keys)
	}
	if rs.Moved == 0 {
		t.Fatal("mid-split recovery moved no key: the test never exercised an import")
	}
}

// crashMidSplit fills a fresh store, starts a split to 7 shards and
// crashes the migrator, returning the store and its crash image. The
// migrator runs in its own goroutine and may finish all 200 keys before
// the crash is armed (a descheduled test goroutine on a loaded host), so
// such an attempt is discarded and retried on a fresh store; the test
// fails only if no attempt crashes the migration.
func crashMidSplit(t *testing.T) (*store.Store, []uint64) {
	t.Helper()
	for attempt := 0; attempt < 50; attempt++ {
		st, err := NewDLStore(core.PolicyHT, dstruct.Automatic)
		if err != nil {
			t.Fatal(err)
		}
		sess := store.Open[string](st, store.Direct)
		for k := 0; k < 200; k++ {
			sess.Put(fmt.Sprintf("split-%d", k), uint64(k))
		}
		sess.Close()
		if err := st.Split(7); err != nil {
			t.Fatal(err)
		}
		st.Mem().ArmCrash() // the migrator dies at its next instruction
		if st.WaitSplit() {
			st.Mem().DisarmCrash()
			continue // it completed before the crash was armed
		}
		img := st.Mem().CrashImage(pmem.DropUnfenced, 0)
		st.Mem().DisarmCrash()
		return st, img
	}
	t.Fatal("migration completed despite an armed crash in every attempt")
	return nil, nil
}
