package crashtest

import (
	"fmt"

	"flit/internal/dlcheck"
	"flit/internal/hist"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// This file holds the one executor per store session mode that both
// store batteries drive — the randomized rounds (RunStore) and the
// systematic enumerator (RunStoreDL) — behind dlcheck.BatchExecutor.
// Each executor owns its mode's translation of a checker operation
// (hist.Insert is the store's Put: true iff newly inserted) and maps
// the checker's uint64 keys onto store string keys with keyOf.

// openExec opens one session of the given mode on st. The returned
// thread is where the executor's instructions run — the place a crash
// countdown is armed — or nil for Combined, whose operations run on
// st.CombinerThreads().
func openExec(st *store.Store, mode store.SessionMode, keyOf func(uint64) string) (dlcheck.BatchExecutor, *pmem.Thread) {
	switch mode {
	case store.Direct:
		ex := newDirectExec(st, keyOf)
		return ex, ex.sess.Thread()
	case store.Batched:
		// The network server's own group-commit executor, minus the
		// sockets: per-shard grouping, deferred-persistence execution,
		// one commit fence, then (and only then) responses.
		b := server.New(st, server.Options{}).NewBatcher()
		return &batchExec{b: b, keyOf: keyOf}, b.Session().Thread()
	case store.Combined:
		return &combExec{sess: store.Open[string](st, store.Combined), keyOf: keyOf}, nil
	default:
		panic(fmt.Sprintf("crashtest: unknown session mode %v", mode))
	}
}

// directExec runs each operation to completion on a Direct session. It
// is also the dstruct.SetThread dlcheck.Run drives one op at a time.
// Membership probes read through Get, whose response also depends on the
// value word an in-place Put overwrites.
type directExec struct {
	sess  *store.Sess[string]
	keyOf func(uint64) string
}

func newDirectExec(st *store.Store, keyOf func(uint64) string) directExec {
	return directExec{sess: store.Open[string](st, store.Direct), keyOf: keyOf}
}

func (e directExec) Insert(k, v uint64) bool { return e.sess.Put(e.keyOf(k), v) }
func (e directExec) Delete(k uint64) bool    { return e.sess.Delete(e.keyOf(k)) }
func (e directExec) Contains(k uint64) bool {
	_, ok := e.sess.Get(e.keyOf(k))
	return ok
}

func (e directExec) ExecBatch(ops []dlcheck.BatchOp, results []bool) {
	for i, op := range ops {
		switch op.Kind {
		case hist.Insert:
			results[i] = e.Insert(op.Key, op.Val)
		case hist.Delete:
			results[i] = e.Delete(op.Key)
		default:
			results[i] = e.Contains(op.Key)
		}
	}
}

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

// batchExec drives a server.Batcher: the whole op vector is one
// pipeline batch under one commit fence.
type batchExec struct {
	b     *server.Batcher
	keyOf func(uint64) string
	reqs  []server.Request
	resps []server.Response
}

func (e *batchExec) ExecBatch(ops []dlcheck.BatchOp, results []bool) {
	e.reqs, e.resps = e.reqs[:0], e.resps[:0]
	for _, op := range ops {
		e.reqs = append(e.reqs, reqFor(op.Kind, []byte(e.keyOf(op.Key)), op.Val))
		e.resps = append(e.resps, server.Response{})
	}
	e.b.Exec(e.reqs, e.resps)
	for i := range e.resps {
		results[i] = e.resps[i].Flag
	}
}

// combExec announces the op vector to the store's per-shard combiners
// through a Combined session: Apply returns only after every touched
// shard's window fence.
type combExec struct {
	sess  *store.Sess[string]
	keyOf func(uint64) string
	ops   []store.Op[string]
	res   []store.Result
}

func (e *combExec) ExecBatch(ops []dlcheck.BatchOp, results []bool) {
	e.ops, e.res = e.ops[:0], e.res[:0]
	for _, op := range ops {
		kind := store.OpContains
		switch op.Kind {
		case hist.Insert:
			kind = store.OpPut
		case hist.Delete:
			kind = store.OpDelete
		}
		e.ops = append(e.ops, store.Op[string]{Kind: kind, Key: e.keyOf(op.Key), Val: op.Val})
		e.res = append(e.res, store.Result{})
	}
	e.sess.Apply(e.ops, e.res)
	for i := range e.res {
		results[i] = e.res[i].Ok
	}
}
