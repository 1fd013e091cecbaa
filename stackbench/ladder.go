package main

import (
	"fmt"
	"sync"
	"time"

	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/dstruct/hashtable"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// The ladder replays the workload's seeded stream one layer further down
// at each rung, so each layer's cost is a difference between two rungs:
//
//	client window (measured)  − Batcher.Exec          = transport
//	Batcher.Exec              − Sess.Apply + Commit   = server batching
//	Direct Sess op            − hashtable.Table op    = store tax
//	hashtable op              ↔ p-load/p-store/PWB/fence unit costs
//
// Every rung runs one goroutine per client for rungTime.
const rungTime = time.Second

// rungSpans bounds the spans one rung goroutine keeps.
const rungSpans = 1 << 14

// runRung runs fn once per client concurrently and returns their tracers.
func runRung(fn func(c int, tr *tracer)) []*tracer {
	ts := make([]*tracer, clients)
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = newTracer(c, rungSpans)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, ts[c])
		}(c)
	}
	wg.Wait()
	return ts
}

// execStats is what the Batcher.Exec rung saw on its sessions' threads.
type execStats struct {
	ops   uint64
	stats pmem.Stats
}

// execRung replays each client's windows through its own Batcher.Exec:
// the server's group-commit executor without the socket.
func execRung(srv *server.Server, w *workload, seed int64) ([]*tracer, execStats, error) {
	var mu sync.Mutex
	var es execStats
	var firstErr error
	ts := runRung(func(c int, tr *tracer) {
		b := srv.NewBatcher()
		defer b.Close()
		g := newGen(w, seed, c)
		win := newWindow(w.window)
		resps := make([]server.Response, w.window)
		before := b.Session().Thread().Stats
		var ops uint64
		var err error
		for seq, end := uint64(0), now()+int64(rungTime); now() < end; seq++ {
			tr.request(seq)
			win.fill(g)
			t0 := now()
			b.Exec(win.reqs, resps)
			tr.rec(spServerExec, -1, 1, t0, now())
			ops += uint64(len(resps))
			for i := range resps {
				if st := resps[i].Status; st != server.StatusOK && err == nil {
					err = fmt.Errorf("exec rung: status %d", st)
				}
			}
		}
		d := b.Session().Thread().Stats
		subStats(&d, &before)
		mu.Lock()
		es.ops += ops
		es.stats.Add(&d)
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	})
	return ts, es, firstErr
}

// applyRung replays the same windows through a Batched session: one
// Apply of the window, then its Commit.
func applyRung(st *store.Store, w *workload, seed int64) []*tracer {
	return runRung(func(c int, tr *tracer) {
		s := store.Open[[]byte](st, store.Batched)
		defer s.Close()
		g := newGen(w, seed, c)
		win := newWindow(w.window)
		ops := make([]store.Op[[]byte], w.window)
		res := make([]store.Result, w.window)
		for seq, end := uint64(0), now()+int64(rungTime); now() < end; seq++ {
			tr.request(seq)
			win.fill(g)
			for i, o := range win.ops {
				ops[i] = store.Op[[]byte]{Kind: storeKind[o.kind], Key: win.keys[i], Val: o.val}
			}
			t0 := now()
			s.Apply(ops, res)
			t1 := now()
			s.Commit()
			t2 := now()
			tr.rec(spStoreApply, -1, 1, t0, t1)
			tr.rec(spStoreCommit, -1, 1, t1, t2)
		}
	})
}

// opStats sums the instruction counters of one op kind's calls.
type opStats [numKinds]struct {
	calls, pwbs, fences uint64
}

// sessionRung replays each client's stream op by op through a Direct
// session on the live store, counting each call's pwbs and fences.
func sessionRung(st *store.Store, w *workload, seed int64) ([]*tracer, opStats) {
	var mu sync.Mutex
	var all opStats
	ts := runRung(func(c int, tr *tracer) {
		s := store.Open[[]byte](st, store.Direct)
		defer s.Close()
		th := s.Thread()
		g := newGen(w, seed, c)
		var own opStats
		var kb []byte
		for end := now() + int64(rungTime); now() < end; {
			tr.request(g.seq)
			o := g.next()
			kb = appendKey(kb[:0], o.key)
			pw, fe := th.Stats.PWBs, th.Stats.PFences
			t0 := now()
			switch o.kind {
			case opGet:
				s.Get(kb)
			case opPut:
				s.Put(kb, o.val)
			case opDelete:
				s.Delete(kb)
			}
			tr.rec(spStoreGet+spanName(o.kind), -1, 1, t0, now())
			k := &own[o.kind]
			k.calls++
			k.pwbs += th.Stats.PWBs - pw
			k.fences += th.Stats.PFences - fe
		}
		mu.Lock()
		for k := range all {
			all[k].calls += own[k].calls
			all[k].pwbs += own[k].pwbs
			all[k].fences += own[k].fences
		}
		mu.Unlock()
	})
	return ts, all
}

// tableRung builds a standalone hashtable.Table of the store's policy with
// the store's total bucket count (so chains have the store's length),
// loads it with the quiesced store's pairs in key order, and replays the
// same stream with the same hashed keys, op by op.
func tableRung(opts store.Options, words int, snap map[uint64]uint64, w *workload, seed int64) ([]*tracer, error) {
	mem := pmem.New(pmem.DefaultConfig(words))
	pol, err := core.NewPolicyByName(opts.Policy, mem.Words(), opts.HTBytes)
	if err != nil {
		return nil, err
	}
	cfg := dstruct.Config{Heap: pheap.NewWithRoots(mem, 1), Policy: pol, Mode: opts.Mode, Stride: dstruct.StrideFor(pol)}
	tbl := hashtable.New(cfg, opts.Shards*opts.Buckets)
	// Loading is set-up for this rung, not part of it: run it without
	// the modeled latencies.
	costs := mem.Config()
	mem.SetCosts(0, 0, 0, 0)
	loader := tbl.Open(dstruct.ThreadOpts{})
	var kb []byte
	for i := uint32(0); i < uint32(w.preload+w.churn); i++ {
		kb = appendKey(kb[:0], i)
		h := store.HashKeyBytes(kb)
		if v, ok := snap[h]; ok {
			loader.Insert(h, v)
		}
	}
	loader.Close()
	mem.SetCosts(costs.PWBCost, costs.PFenceCost, costs.PFenceEntryCost, costs.MissCost)

	return runRung(func(c int, tr *tracer) {
		th := tbl.Open(dstruct.ThreadOpts{})
		defer th.Close()
		g := newGen(w, seed, c)
		var kb []byte
		for end := now() + int64(rungTime); now() < end; {
			tr.request(g.seq)
			o := g.next()
			kb = appendKey(kb[:0], o.key)
			h := store.HashKeyBytes(kb)
			t0 := now()
			switch o.kind {
			case opGet:
				th.Get(h)
			case opPut:
				th.Put(h, o.val&store.ValueMask)
			case opDelete:
				th.Delete(h)
			}
			tr.rec(spDstructGet+spanName(o.kind), -1, 1, t0, now())
		}
	}), nil
}

// unitCosts times the persistence primitives on a private memory with the
// store's default cost model: FliT p-load (untagged, so no flush) and
// p-store, a PWB, an empty fence, and a PWB+fence pair draining one line.
func unitCosts(opts store.Options) (*tracer, error) {
	mem := pmem.New(pmem.DefaultConfig(1 << 16))
	pol, err := core.NewPolicyByName(opts.Policy, mem.Words(), opts.HTBytes)
	if err != nil {
		return nil, err
	}
	t := mem.RegisterThread()
	defer t.Release()
	tr := newTracer(0, 256)
	tr.request(0)
	const lines = 256
	addr := func(i int) pmem.Addr { return pmem.Addr(pmem.WordsPerLine * (1 + i%lines)) }
	block := func(name spanName, n int, body func(i int)) {
		t0 := now()
		for i := 0; i < n; i++ {
			body(i)
		}
		tr.rec(name, -1, uint32(n), t0, now())
	}
	block(spCoreLoad, 1<<20, func(i int) { pol.Load(t, addr(i), core.P) })
	block(spCoreStore, 1<<15, func(i int) { pol.Store(t, addr(i), uint64(i), core.P) })
	for r := 0; r < 1<<7; r++ {
		block(spPmemPWB, lines, func(i int) { t.PWB(addr(i)) })
		t.PFence()
	}
	block(spPmemFence, 1<<18, func(int) { t.PFence() })
	block(spPmemPWBFence, 1<<15, func(i int) {
		t.PWB(addr(i))
		t.PFence()
	})
	return tr, nil
}

// genCost times the benchmark's own input generation: one op plus its
// key spelling.
func genCost(w *workload, seed int64) float64 {
	g := newGen(w, seed, 0)
	var kb []byte
	const n = 1 << 20
	t0 := now()
	for i := 0; i < n; i++ {
		kb = appendKey(kb[:0], g.next().key)
	}
	return float64(now()-t0) / n
}

func subStats(s, o *pmem.Stats) {
	s.Loads -= o.Loads
	s.Stores -= o.Stores
	s.RMWs -= o.RMWs
	s.PWBs -= o.PWBs
	s.PFences -= o.PFences
	s.Drained -= o.Drained
	s.Misses -= o.Misses
	s.Ops -= o.Ops
	s.FailedOp -= o.FailedOp
}
