package main

import (
	"fmt"
	"net"
	"os"
	"sync"

	"flit/internal/client"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// workload is one closed-loop traffic mix with a fixed client count.
type workload struct {
	name string
	why  string
	// svc drives an in-process server over a unix socket with pipelined
	// windows of `window` requests; otherwise each client is a Direct
	// store session.
	svc    bool
	window int
	// preload keys [0, preload) are loaded at set-up; a churn workload's
	// operations target only the churn keys [preload, preload+churn),
	// half owned by each client.
	preload, churn int
	// getPermille and putPermille split the mix; the rest are deletes.
	getPermille, putPermille int
	// zipf draws keys from a scrambled zipfian(zipfS) instead of
	// uniformly; z is its table, built once before any client starts.
	zipf bool
	z    *zipf
}

const (
	clients = 2
	zipfS   = 1.1
)

var workloads = []*workload{
	{
		name: "svc-a-zipf", svc: true, window: 16, preload: 1 << 17,
		getPermille: 500, putPermille: 500, zipf: true,
		why: "the deployed server path: client encoding, framing, group commit and FliT p-stores, on a hot set that fits in L2",
	},
	{
		name: "embed-b-uniform", preload: 1 << 19, getPermille: 950, putPermille: 50,
		why: "the embedded path on a heap ~10x L2: hashtable traversal and FliT p-loads, no server, no allocation",
	},
	{
		name: "embed-churn", preload: 1 << 16, churn: 1 << 16, getPermille: 500, putPermille: 250,
		why: "the embedded path with structural writes: inserts allocate nodes, deletes retire them through reclaim and pheap",
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			if w.zipf && w.z == nil {
				w.z = newZipf(w.preload, zipfS)
			}
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// storeOptions is the default store configuration, sized by the flitstore
// convention of about twice the loaded keys.
func (w *workload) storeOptions() store.Options {
	return store.Options{ExpectedKeys: 2 * w.preload}
}

// env is one set-up instance of a workload: the store, its loaded keys,
// and either a serving server with one connection per client or one
// Direct session per client.
type env struct {
	w      *workload
	st     *store.Store
	srv    *server.Server
	served chan error
	conns  []*client.Conn
	sess   []*store.Sess[[]byte]
}

// setup builds the store, loads the preloaded keys with one Direct
// session per client, and starts the server and dials it (svc) or opens
// the clients' sessions (embed). Its wall time is setup_s.
func setup(w *workload, tag int) (*env, error) {
	st, err := store.New(w.storeOptions())
	if err != nil {
		return nil, err
	}
	e := &env{w: w, st: st}
	if err := e.load(); err != nil {
		return nil, err
	}
	if !w.svc {
		for c := 0; c < clients; c++ {
			e.sess = append(e.sess, store.Open[[]byte](st, store.Direct))
		}
		return e, nil
	}
	e.srv = server.New(st, server.Options{Metrics: true})
	// An abstract unix socket: no file to clean up, unique per process.
	addr := fmt.Sprintf("@stackbench-%d-%d", os.Getpid(), tag)
	ln, err := net.Listen("unix", addr)
	if err != nil {
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		conn, err := client.Dial("unix", addr)
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, conn)
		if err := conn.Ping(); err != nil {
			e.close()
			return nil, fmt.Errorf("ping: %w", err)
		}
	}
	return e, nil
}

// load inserts every preloaded key, interleaved across the clients.
func (e *env) load() error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := store.Open[[]byte](e.st, store.Direct)
			defer s.Close()
			var kb []byte
			for i := uint32(c); i < uint32(e.w.preload); i += clients {
				kb = appendKey(kb[:0], i)
				if !s.Put(kb, tagVal(i, 0)) {
					errs[c] = fmt.Errorf("load: key %d already present", i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops the server and waits for its accept loop, closes the
// connections and sessions. The store itself is garbage once dropped.
func (e *env) close() {
	for _, c := range e.conns {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	for _, s := range e.sess {
		s.Close()
	}
}

// slices splits a measured window into equal intervals; throughput and
// latency quantiles are the median over them, so one interval disturbed
// by a neighbour moves the result less than a whole-window figure.
const slices = 10

// phase is a measured window [start, end) in ns since epoch. Operations
// completing before start are warm-up: executed and checked, not timed.
type phase struct{ start, end int64 }

func (p phase) slice(t int64) int { return int((t - p.start) * slices / (p.end - p.start)) }

// worker is one closed-loop client: its stream, its exact model of the
// keys it owns (churn), and what it measured in the current window.
type worker struct {
	c  int
	w  *workload
	g  *gen
	tr *tracer // nil in untraced windows

	// present and vals model the client's half of the churn range.
	present []bool
	vals    []uint64

	attempted, failed uint64
	firstFail         string

	// Per window.
	ops      uint64
	perSlice [slices]struct {
		ops uint64
		lat hist
	}
	statsAt, statsEnd pmem.Stats // embed: the session thread's counters
	windows           uint64     // svc: windows completed in the phase
	windowNs          int64      // svc: Σ first-send to last-receive
	err               error      // transport failure that ended the loop
}

func newWorker(w *workload, seed int64, c int) *worker {
	wk := &worker{c: c, w: w, g: newGen(w, seed, c)}
	if w.churn > 0 {
		wk.present = make([]bool, w.churn/clients)
		wk.vals = make([]uint64, w.churn/clients)
	}
	return wk
}

func (wk *worker) resetWindow() {
	wk.ops, wk.windows, wk.windowNs = 0, 0, 0
	for i := range wk.perSlice {
		wk.perSlice[i].ops = 0
		wk.perSlice[i].lat = hist{}
	}
}

func (wk *worker) fail(format string, a ...any) {
	wk.failed++
	if wk.firstFail == "" {
		wk.firstFail = fmt.Sprintf("client %d: ", wk.c) + fmt.Sprintf(format, a...)
	}
}

// check verifies one result against what the client knows: a preloaded
// key always exists and holds a value written for it; a churn key's
// state is exactly the client's model, since no other client touches it.
func (wk *worker) check(o op, v uint64, ok bool) {
	wk.attempted++
	if wk.present == nil {
		switch o.kind {
		case opGet:
			if !ok {
				wk.fail("get %d: miss on a preloaded key", o.key)
			} else if valKey(v) != o.key {
				wk.fail("get %d: value %#x belongs to key %d", o.key, v, valKey(v))
			}
		case opPut:
			if ok {
				wk.fail("put %d: inserted a key that was preloaded", o.key)
			}
		case opDelete:
			wk.fail("delete %d: deletes are not in this mix", o.key)
		}
		return
	}
	j := o.key - wk.g.keyLo
	switch o.kind {
	case opGet:
		if ok != wk.present[j] || ok && v != wk.vals[j] {
			wk.fail("get %d: got (%#x, %v), model (%#x, %v)", o.key, v, ok, wk.vals[j], wk.present[j])
		}
	case opPut:
		if ok == wk.present[j] {
			wk.fail("put %d: inserted=%v with the key present=%v", o.key, ok, wk.present[j])
		}
		wk.present[j], wk.vals[j] = true, o.val
	case opDelete:
		if ok != wk.present[j] {
			wk.fail("delete %d: existed=%v, model %v", o.key, ok, wk.present[j])
		}
		wk.present[j] = false
	}
}

// record counts one operation completed at t with latency lat, if it
// falls inside the phase.
func (wk *worker) record(ph phase, t, lat int64) {
	if t < ph.start || t >= ph.end {
		return
	}
	s := &wk.perSlice[ph.slice(t)]
	s.ops++
	s.lat.record(lat)
	wk.ops++
}

// runEmbed drives a Direct session until the phase ends.
func (wk *worker) runEmbed(s *store.Sess[[]byte], ph phase) {
	tr := wk.tr
	var kb []byte
	started := false
	for {
		var tg int64
		if tr != nil {
			tg = now()
			tr.request(wk.g.seq)
		}
		o := wk.g.next()
		kb = appendKey(kb[:0], o.key)
		var v uint64
		var ok bool
		t0 := now()
		switch o.kind {
		case opGet:
			v, ok = s.Get(kb)
		case opPut:
			ok = s.Put(kb, o.val)
		case opDelete:
			ok = s.Delete(kb)
		}
		t1 := now()
		if tr != nil {
			// The op span covers generation through the call; checking
			// and recording are left out, to save a clock read.
			root := tr.open(spBenchOp, -1, tg)
			tr.rec(spStoreGet+spanName(o.kind), root, 1, t0, t1)
			tr.close(root, spBenchOp, tg, t1)
		}
		wk.check(o, v, ok)
		if t1 >= ph.start && !started {
			wk.statsAt, started = s.Thread().Stats, true
		}
		if t1 >= ph.end {
			wk.statsEnd = s.Thread().Stats
			return
		}
		wk.record(ph, t1, t1-t0)
	}
}

var (
	wireOp    = [numKinds]byte{opGet: server.OpGet, opPut: server.OpPut, opDelete: server.OpDelete}
	storeKind = [numKinds]store.OpKind{opGet: store.OpGet, opPut: store.OpPut, opDelete: store.OpDelete}
)

// window is one pipelined request window of generated operations.
type window struct {
	ops  []op
	keys [][]byte
	reqs []server.Request
}

func newWindow(n int) *window {
	return &window{ops: make([]op, n), keys: make([][]byte, n), reqs: make([]server.Request, n)}
}

// fill generates the next window of g's stream.
func (win *window) fill(g *gen) {
	for i := range win.ops {
		o := g.next()
		win.ops[i] = o
		win.keys[i] = appendKey(win.keys[i][:0], o.key)
		win.reqs[i] = server.Request{Op: wireOp[o.kind], Key: win.keys[i], Val: o.val}
	}
}

// runSvc drives one connection with pipelined windows until the phase
// ends. An operation's latency runs from its window's first Send to its
// own response.
func (wk *worker) runSvc(conn *client.Conn, ph phase) {
	tr := wk.tr
	win := newWindow(wk.w.window)
	var seq uint64
	for {
		var tg int64
		var root int32 = -1
		if tr != nil {
			tg = now()
			tr.request(seq)
			root = tr.open(spBenchWindow, -1, tg)
		}
		seq++
		win.fill(wk.g)
		t0 := now()
		for i := range win.reqs {
			ts := t0
			if tr != nil {
				ts = now()
			}
			conn.Send(&win.reqs[i])
			if tr != nil {
				tr.rec(spClientSend, root, 1, ts, now())
			}
		}
		tf := now()
		if err := conn.Flush(); err != nil {
			wk.err = fmt.Errorf("flush: %w", err)
			return
		}
		prev := now()
		if tr != nil {
			tr.rec(spClientFlush, root, 1, tf, prev)
		}
		for i := range win.reqs {
			resp, err := conn.Recv()
			t := now()
			if err != nil {
				wk.err = fmt.Errorf("recv: %w", err)
				return
			}
			wk.checkResp(win.ops[i], resp)
			if tr != nil {
				name := spClientRecv
				if i == 0 {
					name = spClientWait
				}
				tr.rec(name, root, 1, prev, t)
			}
			wk.record(ph, t, t-t0)
			prev = t
		}
		if tr != nil {
			tr.close(root, spBenchWindow, tg, now())
		}
		if prev >= ph.start && prev < ph.end {
			wk.windows++
			wk.windowNs += prev - t0
		}
		if prev >= ph.end {
			return
		}
	}
}

// checkResp maps a wire response onto check: BUSY, DRAINING and any
// status other than OK or a GET miss count as failures.
func (wk *worker) checkResp(o op, r *server.Response) {
	switch {
	case r.Status == server.StatusOK:
		wk.check(o, r.Val, o.kind == opGet || r.Flag)
	case r.Status == server.StatusNotFound && o.kind == opGet:
		wk.check(o, 0, false)
	default:
		wk.attempted++
		wk.fail("op %s %d: status %d", kindNames[o.kind], o.key, r.Status)
	}
}

// runWindow runs every client until ph ends and waits for them.
func (e *env) runWindow(wks []*worker, ph phase) {
	var wg sync.WaitGroup
	for _, wk := range wks {
		wk.resetWindow()
		wg.Add(1)
		go func(wk *worker) {
			defer wg.Done()
			if e.w.svc {
				wk.runSvc(e.conns[wk.c], ph)
			} else {
				wk.runEmbed(e.sess[wk.c], ph)
			}
		}(wk)
	}
	wg.Wait()
}
