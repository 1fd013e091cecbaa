package crashtest

import (
	"fmt"
	"math/rand"
	"sync"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// This file wires the batched request path — the network server's
// group-commit executor (server.Batcher over a Batched-mode store session) — into
// both crash harnesses: the randomized rounds (RunStoreBatched) and the
// systematic enumerator (RunStoreBatchedDL). The batteries drive the
// exact code the wire protocol runs, minus the sockets: per-shard
// grouping, deferred-persistence execution, one commit fence, then (and
// only then) responses.

// reqFor translates a checker operation into its wire request.
func reqFor(kind hist.Kind, key []byte, val uint64) server.Request {
	switch kind {
	case hist.Insert:
		return server.Request{Op: server.OpPut, Key: key, Val: val}
	case hist.Delete:
		return server.Request{Op: server.OpDelete, Key: key}
	default:
		return server.Request{Op: server.OpContains, Key: key}
	}
}

// batchExec adapts a server.Batcher to dlcheck.BatchExecutor, mapping
// the enumerator's uint64 keys onto store string keys (same namespace
// as RunStoreDL).
type batchExec struct {
	b     *server.Batcher
	reqs  []server.Request
	resps []server.Response
}

func (e *batchExec) ExecBatch(ops []dlcheck.BatchOp, results []bool) {
	e.reqs, e.resps = e.reqs[:0], e.resps[:0]
	for _, op := range ops {
		e.reqs = append(e.reqs, reqFor(op.Kind, []byte(dlStoreKey(op.Key)), op.Val))
		e.resps = append(e.resps, server.Response{})
	}
	e.b.Exec(e.reqs, e.resps)
	for i := range e.resps {
		results[i] = e.resps[i].Flag
	}
}

// RunStoreBatchedDL runs the systematic checker against a whole store
// reached through the server's batched executor: pipelined batches of
// varying depth execute under single commit fences, every response is
// recorded only after its batch's commit, and every (budgeted) persist
// boundary is recovered and checked. st must be freshly created, as for
// RunStoreDL.
func RunStoreBatchedDL(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
	opts = opts.Normalized()
	keyspace := opts.KeyRange
	if opts.Prefill > keyspace {
		keyspace = opts.Prefill
	}
	back := make(map[uint64]uint64, keyspace)
	for k := 0; k < keyspace; k++ {
		back[store.HashKey(dlStoreKey(uint64(k)))] = uint64(k)
	}
	srv := server.New(st, server.Options{})
	return dlcheck.RunBatched(dlcheck.BatchedHarness{
		Name:       "store-batched",
		Mem:        st.Mem(),
		Policy:     st.Policy(),
		NewSession: func() dlcheck.BatchExecutor { return &batchExec{b: srv.NewBatcher()} },
		Recover: func(img []uint64) (map[uint64]bool, error) {
			mem2 := pmem.NewFromImage(img, st.Mem().Config())
			st2, _, err := store.Recover(mem2, st.Heap().Watermark(), st.Opts())
			if err != nil {
				return nil, err
			}
			final := make(map[uint64]bool)
			for h := range st2.Snapshot() {
				k, ok := back[h]
				if !ok {
					return nil, fmt.Errorf("recovered key hash %#x is outside the checker's namespace (phantom key)", h)
				}
				final[k] = true
			}
			return final, nil
		},
	}, opts)
}

// RunStoreBatched executes one seeded randomized crash round through
// the batched request path: workers pipeline batches of up to
// MaxBatch ops into group-commit executors, each crashing at a seeded
// instruction countdown — including mid-batch, which freezes executed-
// but-unacknowledged operations as pending history entries (free to
// survive or vanish). The recovered key set is then checked exactly as
// RunStore does.
func RunStoreBatched(st *store.Store, opts StoreOptions, maxBatch int) (StoreVerdict, error) {
	if opts.KeyOf == nil {
		opts.KeyOf = func(i uint64) string { return fmt.Sprintf("key-%d", i) }
	}
	if min := uint64(opts.Workers*opts.OpsPerWorker)/4 + 1; opts.KeyRange < min {
		opts.KeyRange = min
	}
	if opts.MaxCrash < opts.MinCrash {
		opts.MaxCrash = opts.MinCrash
	}
	if maxBatch <= 0 {
		maxBatch = 8
	}

	initial := make(map[uint64]bool)
	for k := range st.Snapshot() {
		initial[k] = true
	}

	srv := server.New(st, server.Options{MaxBatch: maxBatch})
	clock := &hist.Clock{}
	rng := rand.New(rand.NewSource(opts.Seed))
	recs := make([]*hist.Recorder, opts.Workers)
	batchers := make([]*server.Batcher, opts.Workers)
	countdowns := make([]int64, opts.Workers)
	seeds := make([]int64, opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		recs[w] = hist.NewRecorder(clock)
		batchers[w] = srv.NewBatcher()
		countdowns[w] = opts.MinCrash + rng.Int63n(opts.MaxCrash-opts.MinCrash+1)
		seeds[w] = rng.Int63()
	}

	var crashed, recorded int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := batchers[w]
			rec := recs[w]
			wrng := rand.New(rand.NewSource(seeds[w]))
			b.Session().Thread().SetCrashAfter(countdowns[w])
			n := 0
			reqs := make([]server.Request, 0, maxBatch)
			resps := make([]server.Response, maxBatch)
			toks := make([]int, 0, maxBatch)
			kinds := make([]hist.Kind, 0, maxBatch)
			c := pmem.RunToCrash(func() {
				remaining := opts.OpsPerWorker
				for remaining > 0 {
					depth := 1 + wrng.Intn(maxBatch)
					if depth > remaining {
						depth = remaining
					}
					remaining -= depth
					reqs, toks, kinds = reqs[:0], toks[:0], kinds[:0]
					for i := 0; i < depth; i++ {
						idx := uint64(wrng.Int63()) % opts.KeyRange
						key := opts.KeyOf(idx)
						hk := store.HashKey(key)
						kind := hist.Kind(wrng.Intn(3))
						reqs = append(reqs, reqFor(kind, []byte(key), uint64(n+i)))
						toks = append(toks, rec.Begin(kind, hk))
						kinds = append(kinds, kind)
					}
					n += depth
					// A crash inside Exec leaves the whole batch
					// unacknowledged: every op stays pending.
					b.Exec(reqs, resps[:depth])
					for i := 0; i < depth; i++ {
						rec.Finish(toks[i], resps[i].Flag)
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

	wm := st.Heap().Watermark()
	img := st.Mem().CrashImage(opts.CrashMode, opts.Seed^0x5ca1ab1e)
	mem2 := pmem.NewFromImage(img, st.Mem().Config())
	st2, rstats, err := store.Recover(mem2, wm, st.Opts())
	if err != nil {
		return StoreVerdict{}, err
	}
	final := make(map[uint64]bool)
	for k := range st2.Snapshot() {
		final[k] = true
	}
	return StoreVerdict{
		Violation:   hist.Check(recs, initial, final),
		Store:       st2,
		Recovery:    rstats,
		RecordedOps: int(recorded),
		Crashed:     int(crashed),
	}, nil
}
