package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/dstruct/queue"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
)

// This file wires the randomized crash harness's target registry and the
// store's session-mode executors (exec.go) into the systematic enumerator
// (internal/dlcheck): the same structures and store paths, the same
// recovery, but every PWB/PFence boundary of a recorded execution checked
// instead of one random image per round.

// DL adapts a crash-test target for dlcheck.RunSet.
func (t Target) DL() dlcheck.Target {
	return dlcheck.Target{
		Name:    t.Name,
		New:     func(cfg dstruct.Config) dlcheck.Instance { return dlcheck.Instance(t.New(cfg)) },
		Recover: func(cfg dstruct.Config) dlcheck.Instance { return dlcheck.Instance(t.Recover(cfg)) },
	}
}

// RunQueueDL runs the systematic checker against the durable FIFO queue.
func RunQueueDL(cfg dstruct.Config, opts dlcheck.Options) *dlcheck.Report {
	q := queue.New(cfg)
	return dlcheck.RunQueue(dlcheck.QueueHarness{
		Name:       "queue",
		Mem:        cfg.Heap.Mem(),
		Policy:     cfg.Policy,
		NewSession: func() dlcheck.QueueSession { return q.NewThread() },
		Recover: func(img []uint64) ([]uint64, error) {
			cfg2 := cfg
			cfg2.Heap = pheap.Recover(pmem.NewFromImage(img, cfg.Heap.Mem().Config()), cfg.Heap.Watermark())
			return queue.Recover(cfg2).Snapshot(), nil
		},
	}, opts)
}

// NewDLStore builds the store shape the systematic battery enumerates:
// few shards and a small memory (every crash boundary copies the image)
// on the virtual clock. The single source of truth for the flitcrash
// CLI, this package's battery tests and dlcheck's mutation self-tests —
// the service analogue of dlcheck.NewConfig.
func NewDLStore(policy string, mode dstruct.Mode) (*store.Store, error) {
	return store.New(store.Options{
		Shards: 4, ExpectedKeys: 1 << 8, Buckets: 16,
		Policy: policy, HTBytes: 1 << 14, Mode: mode,
		MemWords: 1 << 17, VirtualClock: true,
	})
}

func dlStoreKey(k uint64) string { return fmt.Sprintf("dlkey-%d", k) }

// dlRecover is the enumerator's recovery step for st: recover each crash
// image with the store's own procedure (superblock probe, shard-parallel
// rebuild) and translate the recovered key hashes back to engine keys.
// A hash outside the engine's key space is a phantom key, reported as
// an error — exactly the "no operation absent from the history may
// appear" half of the durable rule.
func dlRecover(st *store.Store, opts dlcheck.Options) func(img []uint64) (map[uint64]bool, error) {
	opts = opts.Normalized()
	keyspace := max(opts.KeyRange, opts.Prefill)
	back := make(map[uint64]uint64, keyspace)
	for k := 0; k < keyspace; k++ {
		back[store.HashKey(dlStoreKey(uint64(k)))] = uint64(k)
	}
	return func(img []uint64) (map[uint64]bool, error) {
		st2, _, err := recoverImage(st, img)
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
	}
}

// RunStoreDL runs the systematic checker against a whole store reached
// through sessions of the given mode, mapping the enumerator's uint64
// keys onto store string keys (Put ≡ Insert: true iff newly inserted).
// Direct sessions record one operation at a time (dlcheck.Run); Batched
// and Combined sessions record pipelined vectors of varying depth, each
// answered only after its commit or window fence (dlcheck.RunBatched) —
// for Combined, vectors from concurrent sessions may merge into one
// combiner window. Every (budgeted) crash boundary is then recovered and
// checked. st must be freshly created: the engine's prefill is the whole
// initial state, so any other recovered key is a violation.
func RunStoreDL(st *store.Store, mode store.SessionMode, opts dlcheck.Options) *dlcheck.Report {
	rec := dlRecover(st, opts)
	if mode == store.Direct {
		return dlcheck.Run(dlcheck.Harness{
			Name:       "store",
			Mem:        st.Mem(),
			Policy:     st.Policy(),
			NewSession: func() dstruct.SetThread { return newDirectExec(st, dlStoreKey) },
			Recover:    rec,
		}, opts)
	}
	return dlcheck.RunBatched(dlcheck.BatchedHarness{
		Name:   "store-" + mode.String(),
		Mem:    st.Mem(),
		Policy: st.Policy(),
		NewSession: func() dlcheck.BatchExecutor {
			ex, _ := openExec(st, mode, dlStoreKey)
			return ex
		},
		Recover: rec,
	}, opts)
}
