package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/store"
)

// StoreOptions parameterizes one whole-store crash round.
type StoreOptions struct {
	Workers int
	// OpsPerWorker is each worker's budget (workers usually crash first).
	OpsPerWorker int
	// KeyRange draws key indices from [0, KeyRange); KeyOf renders them as
	// store keys. RunStore widens a too-small range so per-key histories
	// stay inside the checker's 64-op exact window.
	KeyRange uint64
	KeyOf    func(uint64) string
	// MinCrash/MaxCrash bound the per-worker instruction countdowns.
	MinCrash, MaxCrash int64
	CrashMode          pmem.CrashMode
	Seed               int64
}

// DefaultStoreOptions mirrors DefaultOptions at service granularity.
func DefaultStoreOptions(seed int64, mode pmem.CrashMode) StoreOptions {
	return StoreOptions{
		Workers: 4, OpsPerWorker: 96, KeyRange: 256,
		MinCrash: 200, MaxCrash: 6000,
		CrashMode: mode, Seed: seed,
	}
}

// StoreVerdict is the outcome of one store crash round.
type StoreVerdict struct {
	// Violation is nil when the recovered state is durably linearizable.
	Violation *hist.Violation
	// Store is the recovered instance (usable for the next cycle).
	Store *store.Store
	// Recovery reports the shard-parallel rebuild.
	Recovery store.RecoveryStats
	// RecordedOps counts operations the workers invoked (completed or
	// pending at the crash); Crashed counts workers the crash interrupted.
	RecordedOps int
	Crashed     int
}

// roundWindow bounds the op vector a Batched or Combined round worker
// hands its executor per call; each call draws a depth in
// [1, roundWindow].
const roundWindow = 8

// RunStore executes one seeded crash-recovery round against a whole
// store through sessions of the given mode: workers run recorded
// Put/Delete/Contains streams, the persistent image is materialized,
// every shard is recovered in parallel, and the recovered key set is
// checked for durable linearizability against the recorded multi-key
// history. The pre-round snapshot is the initial state, so RunStore
// composes with unrecorded load/run phases before it.
//
// Direct workers run one operation per call (Begin, execute, Finish).
// Batched and Combined workers pipeline vectors of up to roundWindow
// operations, all invoked before the call and answered after it, so a
// crash inside the call leaves the whole vector pending (free to survive
// or vanish). The seeded instruction countdowns are armed where the mode
// executes: the session's thread (Direct), the batcher's session thread
// (Batched), or the store's per-shard combiner threads (Combined) — where
// a firing countdown kills the whole simulated process, freezing every
// worker's in-flight window.
func RunStore(st *store.Store, mode store.SessionMode, opts StoreOptions) (StoreVerdict, error) {
	if opts.KeyOf == nil {
		opts.KeyOf = func(i uint64) string { return fmt.Sprintf("key-%d", i) }
	}
	// Keep expected per-key op counts ≤ ~4 so the exact checker's 64-op
	// cap holds with overwhelming probability even on the hottest key.
	if lo := uint64(opts.Workers*opts.OpsPerWorker)/4 + 1; opts.KeyRange < lo {
		opts.KeyRange = lo
	}
	if opts.MaxCrash < opts.MinCrash {
		opts.MaxCrash = opts.MinCrash
	}
	window := roundWindow
	if mode == store.Direct {
		window = 1
	}

	initial := keySet(st)
	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(opts.Seed))
	countdown := func() int64 { return opts.MinCrash + rng.Int63n(opts.MaxCrash-opts.MinCrash+1) }
	recs := make([]*hist.Recorder, opts.Workers)
	execs := make([]dlcheck.BatchExecutor, opts.Workers)
	seeds := make([]int64, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		recs[w] = hist.NewRecorder(clock)
		var th *pmem.Thread
		execs[w], th = openExec(st, mode, opts.KeyOf)
		if th != nil {
			th.SetCrashAfter(countdown())
		}
		seeds[w] = rng.Int63()
	}
	if mode == store.Combined {
		for _, ct := range st.CombinerThreads() {
			ct.SetCrashAfter(countdown())
		}
	}

	var crashed, recorded int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ex, rec := execs[w], recs[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			ops := make([]dlcheck.BatchOp, 0, window)
			results := make([]bool, window)
			toks := make([]int, 0, window)
			n := 0
			c := pmem.RunToCrash(func() {
				for n < opts.OpsPerWorker {
					depth := 1
					if window > 1 {
						depth = 1 + wrng.Intn(window)
					}
					depth = min(depth, opts.OpsPerWorker-n)
					ops, toks = ops[:0], toks[:0]
					for i := 0; i < depth; i++ {
						idx := uint64(wrng.Int63()) % opts.KeyRange
						kind := hist.Kind(wrng.Intn(3))
						ops = append(ops, dlcheck.BatchOp{Kind: kind, Key: idx, Val: uint64(n + i)})
						toks = append(toks, rec.Begin(kind, store.HashKey(opts.KeyOf(idx))))
					}
					n += depth
					ex.ExecBatch(ops, results[:depth])
					for i, tok := range toks {
						rec.Finish(tok, results[i])
					}
				}
			})
			mu.Lock()
			recorded += int64(n)
			if c {
				crashed++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()

	st2, rstats, final, err := crashRecover(st, opts.CrashMode, opts.Seed)
	if err != nil {
		return StoreVerdict{}, err
	}
	return StoreVerdict{
		Violation:   hist.Check(recs, initial, final),
		Store:       st2,
		Recovery:    rstats,
		RecordedOps: int(recorded),
		Crashed:     int(crashed),
	}, nil
}

// crashRecover is the store batteries' shared tail: materialize st's
// crash image under cm, recover it with the store's own procedure, and
// return the recovered store with its key set.
func crashRecover(st *store.Store, cm pmem.CrashMode, seed int64) (*store.Store, store.RecoveryStats, map[uint64]bool, error) {
	st2, rstats, err := recoverImage(st, st.Mem().CrashImage(cm, seed^0x5ca1ab1e))
	if err != nil {
		return nil, rstats, nil, err
	}
	return st2, rstats, keySet(st2), nil
}

// recoverImage recovers a crash image of st's memory. The watermark is
// read now, after everything the image could have persisted was
// allocated, so recovery never allocates below it.
func recoverImage(st *store.Store, img []uint64) (*store.Store, store.RecoveryStats, error) {
	return store.Recover(pmem.NewFromImage(img, st.Mem().Config()), st.Heap().Watermark(), st.Opts())
}

// keySet returns the key hashes st holds (st quiescent).
func keySet(st *store.Store) map[uint64]bool {
	keys := make(map[uint64]bool)
	for k := range st.Snapshot() {
		keys[k] = true
	}
	return keys
}
