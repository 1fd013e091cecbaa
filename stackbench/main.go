// Command stackbench is the repository's benchmark: three closed-loop
// workloads driven through the stack's public functions — client over a
// unix socket, server, store session, hashtable, FliT policy, simulated
// pmem — timed end to end, checked for correctness, and broken down
// layer by layer in a separate traced run. See README.md.
//
// Usage, from the repository root:
//
//	bash stackbench/run.sh --workload svc-a-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1). The exit code is 1 when a correctness check
// failed and 2 when the benchmark could not run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"flit/internal/metrics"
	"flit/internal/pmem"
	"flit/internal/server"
	"flit/internal/store"
)

// gitRev is stamped by run.sh when the source tree is a git checkout.
var gitRev = "unknown"

const (
	// instances is how many independent store instances an untraced run
	// builds, measures, crashes and recovers, one after another, each for
	// an equal share of --seconds. A store's speed depends on where its
	// memory lands, so a single instance per run would make the
	// run-to-run spread that placement's spread; the end-to-end metrics
	// are medians over all instances. A traced run builds one.
	instances = 7
	// warmup precedes each instance's first measured window: operations
	// run and are checked, but not timed.
	warmup = 500 * time.Millisecond
)

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: svc-a-zipf, embed-b-uniform or embed-churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: add a traced window and the layer ladder, print per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "stackbench: bad arguments: workload %q seconds %v trace %d: %v\n", *name, *seconds, *trace, err)
		return 2
	}
	b := &bench{
		w: w, seed: *seed, traced: *trace == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		// Spans stay inside the checkout, next to the build.
		spans: fmt.Sprintf(".bench_build/stackbench-spans/%s-seed%d.tsv", w.name, *seed),
		out:   bufio.NewWriter(os.Stdout),
	}
	code := b.run()
	b.out.Flush()
	return code
}

type metric struct {
	name, unit string
	value      float64
}

type bench struct {
	w       *workload
	seed    int64
	traced  bool
	seconds time.Duration
	spans   string
	out     *bufio.Writer

	attempted, failed uint64 // operations attempted; failed ops and checks
	fails             []string
}

func (b *bench) checkFail(format string, a ...any) {
	b.failed++
	if len(b.fails) < 10 {
		b.fails = append(b.fails, fmt.Sprintf(format, a...))
	}
}

// sample is what the main goroutine reads at a window's edges.
type sample struct {
	srv         server.Stats
	lat, commit metrics.HistSnapshot
	watermark   uint64
}

func (e *env) sample() sample {
	s := sample{watermark: e.st.Heap().Watermark()}
	if e.srv != nil {
		s.srv = e.srv.Stats()
		m := e.srv.Metrics()
		m.LatSnapshot(&s.lat)
		m.Commit.Read(&s.commit)
	}
	return s
}

// windowResult is one measured window.
type windowResult struct {
	// Per slice: throughput, latency quantiles (ns) and operation count.
	tput, p50, p99, sliceOps []float64
	// ops, pwbs and fences count the window's operations and their
	// instructions: Server.Stats() deltas for svc, the session threads'
	// counter deltas for embed.
	ops, pwbs, fences float64
	stats             pmem.Stats // embed: Σ session-thread deltas
	s0, s1            sample
	windowUs          float64 // svc: mean first-send to last-receive
	growthWordsPerKop float64
}

// measure runs one window of length d with every client, sampling the
// store (and server) at its edges.
func (b *bench) measure(e *env, wks []*worker, lead, d time.Duration) windowResult {
	ph := phase{start: now() + int64(lead)}
	ph.end = ph.start + int64(d)
	done := make(chan struct{})
	go func() {
		e.runWindow(wks, ph)
		close(done)
	}()
	time.Sleep(time.Duration(ph.start - now()))
	var r windowResult
	r.s0 = e.sample()
	time.Sleep(time.Duration(ph.end - now()))
	r.s1 = e.sample()
	<-done

	sliceSec := float64(ph.end-ph.start) / slices / 1e9
	for i := 0; i < slices; i++ {
		var h hist
		var n uint64
		for _, wk := range wks {
			n += wk.perSlice[i].ops
			h.merge(&wk.perSlice[i].lat)
		}
		r.tput = append(r.tput, float64(n)/sliceSec)
		r.p50 = append(r.p50, h.quantile(0.50))
		r.p99 = append(r.p99, h.quantile(0.99))
		r.sliceOps = append(r.sliceOps, float64(n))
	}
	var windows uint64
	var windowNs int64
	var ops uint64
	for _, wk := range wks {
		ops += wk.ops
		d := wk.statsEnd
		subStats(&d, &wk.statsAt)
		r.stats.Add(&d)
		windows += wk.windows
		windowNs += wk.windowNs
	}
	if e.srv != nil {
		r.ops = float64(r.s1.srv.OpsServed - r.s0.srv.OpsServed)
		r.pwbs = float64(r.s1.srv.PWBs - r.s0.srv.PWBs)
		r.fences = float64(r.s1.srv.PFences - r.s0.srv.PFences)
		r.windowUs = ratio(float64(windowNs), float64(windows)) / 1e3
	} else {
		r.ops, r.pwbs, r.fences = float64(ops), float64(r.stats.PWBs), float64(r.stats.PFences)
	}
	r.growthWordsPerKop = ratio(float64(r.s1.watermark-r.s0.watermark), float64(ops)/1e3)
	return r
}

// instance is one store built, measured, crashed and recovered.
type instance struct {
	setupS, recoveryS float64
	heapBytesPerKey   float64
	plain, traced     windowResult

	// Traced runs only: the ladder and what the per-layer metrics need.
	tracers       []*tracer
	ex            execStats
	sessOps       opStats
	rec           store.RecoveryStats
	wm            uint64
	words         int
	centralBlocks int
	genNs         float64
}

// runInstance sets up a store, measures it for d (traced runs: d
// untraced, then d traced, then the ladder), checks it, takes a
// DropUnfenced crash image of the quiesced store, and recovers it.
func (b *bench) runInstance(i int, d time.Duration) (*instance, error) {
	w := b.w
	in := &instance{}
	t0 := now()
	e, err := setup(w, i)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	in.setupS = float64(now()-t0) / 1e9
	if i == 0 {
		b.printConfig(e)
	}
	wks := make([]*worker, clients)
	for c := range wks {
		wks[c] = newWorker(w, b.seed, c)
	}
	runtime.GC()
	in.plain = b.measure(e, wks, warmup, d)
	if b.traced {
		for _, wk := range wks {
			wk.tr = newTracer(wk.c, 1<<17)
			in.tracers = append(in.tracers, wk.tr)
		}
		in.traced = b.measure(e, wks, 0, d)
	}

	// Quiesced: every client has returned and the server is idle.
	for _, wk := range wks {
		b.attempted += wk.attempted
		b.failed += wk.failed
		if wk.firstFail != "" && len(b.fails) < 10 {
			b.fails = append(b.fails, wk.firstFail)
		}
		if wk.err != nil {
			b.checkFail("client %d: %v", wk.c, wk.err)
		}
	}
	snap := e.st.Snapshot()
	b.checkSnapshot(snap, wks)
	opts := e.st.Opts()
	memCfg := e.st.Mem().Config()
	in.words = e.st.Mem().Words()
	in.wm = e.st.Heap().Watermark()
	in.heapBytesPerKey = ratio(float64(in.wm)*8, float64(len(snap)))
	img := e.st.Mem().CrashImage(pmem.DropUnfenced, b.seed)

	if b.traced {
		if w.svc {
			ts, es, err := execRung(e.srv, w, b.seed)
			if err != nil {
				b.checkFail("%v", err)
			}
			in.tracers = append(in.tracers, ts...)
			in.ex = es
			in.tracers = append(in.tracers, applyRung(e.st, w, b.seed)...)
		}
		ts, so := sessionRung(e.st, w, b.seed)
		in.tracers = append(in.tracers, ts...)
		in.sessOps = so
	}
	e.close()
	// Closed sessions surrender their arenas' free blocks to the heap's
	// central depot: what the churn left for reuse.
	in.centralBlocks, _ = e.st.Heap().CentralStats()
	if b.traced {
		runtime.GC()
		ts, err := tableRung(opts, in.words, snap, w, b.seed)
		if err != nil {
			return nil, fmt.Errorf("table rung: %w", err)
		}
		in.tracers = append(in.tracers, ts...)
		ut, err := unitCosts(opts)
		if err != nil {
			return nil, fmt.Errorf("unit costs: %w", err)
		}
		in.tracers = append(in.tracers, ut)
		in.genNs = genCost(w, b.seed)
	}

	runtime.GC()
	mem := pmem.NewFromImage(img, memCfg)
	runtime.GC()
	t0 = now()
	st, rs, err := store.Recover(mem, in.wm, opts)
	in.recoveryS = float64(now()-t0) / 1e9
	if err != nil {
		b.checkFail("recover: %v", err)
		return in, nil
	}
	in.rec = rs
	b.checkRecovered(snap, st.Snapshot(), rs)
	return in, nil
}

func (b *bench) run() int {
	w := b.w
	fmt.Fprintf(b.out, "stackbench: workload=%s seed=%d seconds=%v trace=%v\n", w.name, b.seed, b.seconds.Seconds(), b.traced)
	fmt.Fprintf(b.out, "  why: %s\n", w.why)

	n, d := instances, b.seconds/instances
	if b.traced {
		n, d = 1, b.seconds
	}
	var ins []*instance
	for i := 0; i < n; i++ {
		in, err := b.runInstance(i, d)
		if err != nil {
			fmt.Fprintf(os.Stderr, "stackbench: %v\n", err)
			return 2
		}
		ins = append(ins, in)
		// Hand the instance's memory back, so the next one is placed
		// afresh.
		debug.FreeOSMemory()
	}

	var tput, p50, p99, sliceOps, setupS, recS, heap []float64
	var ops, pwbs, fences float64
	for _, in := range ins {
		tput = append(tput, in.plain.tput...)
		p50 = append(p50, in.plain.p50...)
		p99 = append(p99, in.plain.p99...)
		sliceOps = append(sliceOps, in.plain.sliceOps...)
		ops += in.plain.ops
		pwbs += in.plain.pwbs
		fences += in.plain.fences
		setupS = append(setupS, in.setupS)
		recS = append(recS, in.recoveryS)
		heap = append(heap, in.heapBytesPerKey)
	}
	e2e := []metric{
		{"throughput_ops_s", "1/s", median(tput)},
		{"p50_us", "us", median(p50) / 1e3},
		{"p99_us", "us", median(p99) / 1e3},
		{"pwbs_per_op", "1/op", ratio(pwbs, ops)},
		{"fences_per_op", "1/op", ratio(fences, ops)},
		{"recovery_s", "s", median(recS)},
		{"heap_bytes_per_key", "B/key", median(heap)},
		{"setup_s", "s", median(setupS)},
	}
	fmt.Fprintf(b.out, "end-to-end (untraced; throughput and latency are medians over %d slices of %.3gs across %d instances):\n",
		len(tput), d.Seconds()/slices, len(ins))
	printMetrics(b.out, e2e)
	so := median(sliceOps)
	fmt.Fprintf(b.out, "  p99 from a median of %.0f ops per slice (%.0f beyond it); failed_frac = %d/%d = %g\n",
		so, so/100, b.failed, b.attempted, ratio(float64(b.failed), float64(b.attempted)))
	for i, in := range ins {
		fmt.Fprintf(b.out, "  instance %d: setup_s %.4f throughput_ops_s %.4g recovery_s %.4f heap_bytes_per_key %.4f\n",
			i, in.setupS, median(in.plain.tput), in.recoveryS, in.heapBytesPerKey)
	}

	report := e2e
	if b.traced {
		in := ins[0]
		sum := summarize(in.tracers)
		report = b.layerMetrics(sum, in)
		fmt.Fprintln(b.out, "per-layer (traced window and ladder rungs):")
		printMetrics(b.out, report)
		sum.print(b.out)
		header := fmt.Sprintf("stackbench spans workload=%s seed=%d sample=1/%d rev=%s", w.name, b.seed, spanSampleEvery, gitRev)
		if err := writeSpans(b.spans, header, in.tracers); err != nil {
			fmt.Fprintf(os.Stderr, "stackbench: writing spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(b.out, "  spans written to %s\n", b.spans)
	}
	for _, f := range b.fails {
		fmt.Fprintf(b.out, "FAIL %s\n", f)
	}

	ms := make(map[string]any, len(report))
	for _, m := range report {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(os.Stderr, "stackbench: metric %s is %v\n", m.name, m.value)
			return 2
		}
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "stackbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(b.out, "%s\n", line)
	if b.failed > 0 {
		return 1
	}
	return 0
}

// checkSnapshot compares the quiesced store with what the clients know:
// every preloaded key holds a value written for it (the churn workload
// never touches them, so they hold their load value), and every churn
// key is present with its value exactly when its owner's model says so.
func (b *bench) checkSnapshot(snap map[uint64]uint64, wks []*worker) {
	var kb []byte
	want := b.w.preload
	for i := uint32(0); i < uint32(b.w.preload); i++ {
		kb = appendKey(kb[:0], i)
		v, ok := snap[store.HashKeyBytes(kb)]
		if !ok || valKey(v) != i || b.w.churn > 0 && v != tagVal(i, 0) {
			b.checkFail("snapshot: preloaded key %d holds (%#x, %v)", i, v, ok)
		}
	}
	for _, wk := range wks {
		for j, p := range wk.present {
			i := wk.g.keyLo + uint32(j)
			kb = appendKey(kb[:0], i)
			v, ok := snap[store.HashKeyBytes(kb)]
			if ok != p || p && v != wk.vals[j] {
				b.checkFail("snapshot: churn key %d holds (%#x, %v), model (%#x, %v)", i, v, ok, wk.vals[j], p)
			}
			if p {
				want++
			}
		}
	}
	if len(snap) != want {
		b.checkFail("snapshot: %d keys, want %d", len(snap), want)
	}
}

// checkRecovered requires the store recovered from the crash image to
// equal the quiesced store.
func (b *bench) checkRecovered(snap, rec map[uint64]uint64, rs store.RecoveryStats) {
	if rs.Keys != len(snap) || len(rec) != len(snap) {
		b.checkFail("recovery: %d keys (stats %d), quiesced store had %d", len(rec), rs.Keys, len(snap))
	}
	for k, v := range snap {
		if rv, ok := rec[k]; !ok || rv != v {
			b.checkFail("recovery: key hash %#x holds (%#x, %v), quiesced %#x", k, rv, ok, v)
		}
	}
}

func (b *bench) printConfig(e *env) {
	o := e.st.Opts()
	c := e.st.Mem().Config()
	fmt.Fprintf(b.out, "  store: default Options: policy=%s shards=%d buckets/shard=%d mode=%v htbytes=%d expected_keys=%d (2x %d preloaded) words=%d\n",
		o.Policy, o.Shards, o.Buckets, o.Mode, htBytes(o), o.ExpectedKeys, b.w.preload, e.st.Mem().Words())
	fmt.Fprintf(b.out, "  cost: spin (virtual_clock=%v) pwb=%d fence=%d+%d/line miss=%d\n",
		c.VirtualClock, c.PWBCost, c.PFenceCost, c.PFenceEntryCost, c.MissCost)
	if b.w.svc {
		fmt.Fprintf(b.out, "  server: Options{Metrics: true} over a unix socket; %d connections, windows of %d pipelined requests\n", clients, b.w.window)
	} else {
		fmt.Fprintf(b.out, "  clients: %d goroutines, one Direct session each\n", clients)
	}
	fmt.Fprintf(b.out, "  host: gomaxprocs=%d nproc=%d go=%s rev=%s\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), gitRev)
}

// htBytes resolves the flit-counter table size the policy registry
// defaults to.
func htBytes(o store.Options) int {
	if o.HTBytes == 0 {
		return 1 << 20
	}
	return o.HTBytes
}

func printMetrics(w *bufio.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
