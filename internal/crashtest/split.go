package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/store"
)

// RunStoreSplitDL is RunStoreDL over Direct sessions with an online
// shard split racing the recorded workload: the store splits from its
// configured shard count to splitTo while the workers run, so the
// enumerated crash boundaries land before the split's activation word,
// inside the key migration (between any two of its batch fences), and
// after completion. Every boundary must recover a complete,
// duplicate-free keyspace — the split's crash-consistency claim, checked
// against the same durable rule as the static battery:
//
//   - a key acknowledged before the crash must be present after recovery
//     exactly once (duplicates would surface as linearizability
//     violations on later operations, and phantom hash collisions are
//     rejected outright);
//   - the migration itself must be invisible: it moves keys, it never
//     creates or destroys them.
//
// st must be freshly created with fewer than splitTo shards and no
// combined sessions.
func RunStoreSplitDL(st *store.Store, splitTo int, opts dlcheck.Options) *dlcheck.Report {
	return dlcheck.Run(dlcheck.Harness{
		Name:       fmt.Sprintf("store-split(%d→%d)", st.NumShards(), splitTo),
		Mem:        st.Mem(),
		Policy:     st.Policy(),
		NewSession: func() dstruct.SetThread { return newDirectExec(st, dlStoreKey) },
		During: func() {
			if err := st.Split(splitTo); err != nil {
				panic(fmt.Sprintf("crashtest: split activation failed: %v", err))
			}
			if !st.WaitSplit() {
				panic("crashtest: split migrator crashed without a countdown armed")
			}
		},
		// The watermark is read at enumeration time — after the
		// migration's allocations.
		Recover: dlRecover(st, opts),
	}, opts)
}
