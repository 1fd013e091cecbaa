package bench

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"flit/internal/bench/stats"
	"flit/internal/client"
	"flit/internal/core"
	"flit/internal/dstruct"
	"flit/internal/harness"
	"flit/internal/server"
	"flit/internal/store"
	"flit/internal/workload"
)

// SetCell is one point of the data-structure benchmark grid: a policy ×
// structure × durability mode × update ratio, driven by the figure
// harness (build, prefill, timed uniform workload).
type SetCell struct {
	DS        string
	Policy    string
	Mode      dstruct.Mode
	KeyRange  uint64
	UpdatePct int
}

// ID is the cell's stable identity — a lossless function of the cell
// configuration (sizing included, so differently-sized matrices can
// never silently join in Compare).
func (c SetCell) ID() string {
	return SlugID("set", c.DS, c.Mode.String(), c.Policy,
		fmt.Sprintf("k%d", c.KeyRange), fmt.Sprintf("u%d", c.UpdatePct))
}

// StoreCell is one point of the service-layer grid: a YCSB mix ×
// distribution × policy against the sharded FliT-Store.
type StoreCell struct {
	Mix     string
	Dist    string
	Policy  string
	Shards  int
	Records uint64
}

// ID is the cell's stable identity (shard count and record count
// included — see SetCell.ID).
func (c StoreCell) ID() string {
	return SlugID("store", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records))
}

// NetCell is one point of the network front-end grid: a YCSB mix
// driven through the group-commit server over Conns pipelined
// in-process connections at pipeline depth Depth (request frames per
// window). Its pwbs_per_op cell is PWBs per *acknowledged* server
// operation — the quantity group commit amortizes against the same
// mix's in-process StoreCell baseline.
type NetCell struct {
	Mix     string
	Dist    string
	Policy  string
	Shards  int
	Records uint64
	Conns   int
	Depth   int
}

// ID is the cell's stable identity (see SetCell.ID).
func (c NetCell) ID() string {
	return SlugID("net", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("c%d", c.Conns), fmt.Sprintf("d%d", c.Depth))
}

// OverloadCell is one point of the admission-control grid: a closed-loop
// YCSB mix offered through pipelined connections at a server whose
// admission rate is capped at RateLimit ops/s (token bucket, burst
// Burst). The loop pushes as hard as it can; the server sheds the
// excess with BUSY instead of queuing it, so the cell's headline
// numbers are goodput (acknowledged ops/s, which must track the cap),
// shed_rate (the fraction of offered ops rejected), and the goodput
// p99 (which must stay bounded precisely because excess work is shed,
// not queued). RateLimit 0 is the uncapped control cell.
type OverloadCell struct {
	Mix       string
	Dist      string
	Policy    string
	Shards    int
	Records   uint64
	Conns     int
	Depth     int
	RateLimit float64
	Burst     int
}

// ID is the cell's stable identity (see SetCell.ID).
func (c OverloadCell) ID() string {
	return SlugID("overload", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("c%d", c.Conns), fmt.Sprintf("d%d", c.Depth),
		fmt.Sprintf("rl%d", int(c.RateLimit)))
}

// CombineCell is one point of the embedded flat-combining grid: a YCSB
// mix driven in-process through Combined sessions — Matrix.Threads
// workers each announcing Depth-op vector windows to the store's
// per-shard combiners, which merge concurrent announcements and commit
// each combining window (target size Window) under one fence. Its
// pwbs_per_op cell is the embedded counterpart of the net cells'
// group-commit amortization: no server, no pipeline — the combiner IS
// the batch owner. NoCoalesce disables VSA-style net-delta folding
// (the mix-G control cell); HotKeys pins non-insert draws to a tiny
// key window so FAA traffic piles onto a few counters.
type CombineCell struct {
	Mix        string
	Dist       string
	Policy     string
	Shards     int
	Records    uint64
	Depth      int
	Window     int
	HotKeys    uint64
	NoCoalesce bool
}

// ID is the cell's stable identity (see SetCell.ID). The coalescing
// switch is spelled raw|coal so control and optimized cells can never
// silently join.
func (c CombineCell) ID() string {
	coal := "coal"
	if c.NoCoalesce {
		coal = "raw"
	}
	parts := []string{"combine", c.Mix, c.Dist, c.Policy,
		fmt.Sprintf("s%d", c.Shards), fmt.Sprintf("r%d", c.Records),
		fmt.Sprintf("d%d", c.Depth), fmt.Sprintf("w%d", c.Window), coal}
	if c.HotKeys > 0 {
		parts = append(parts, fmt.Sprintf("h%d", c.HotKeys))
	}
	return SlugID(parts...)
}

// Matrix declares a benchmark run: which cells, and how each is
// measured (threads, warmup, measured duration, repeats). Zero values
// take defaults scaled to the host.
type Matrix struct {
	Name     string
	Threads  int           // default GOMAXPROCS
	Duration time.Duration // per measured repeat; default 100ms
	// Warmup is the discarded warm-up window per cell; zero defaults to
	// Duration/2, any negative value means "no warmup".
	Warmup  time.Duration
	Repeats int   // measured repeats per cell; default 2
	Seed    int64 // workload generator seed (0 is a valid seed)
	// Latency additionally emits p99 cells for store workloads (off for
	// the CI smoke matrix — tail latency is too noisy for a shared
	// runner's gate; on for the nightly full matrix).
	Latency bool
	// VirtualClock runs every cell with pmem's virtual-clock cost mode:
	// modeled latency accrues to per-thread counters instead of spin
	// loops. Single-threaded runs (the pinned CI smoke matrix) execute
	// the identical instruction stream either way, so their pwbs/op
	// cells match spin-mode runs exactly; with more threads, different
	// interleavings can shift pwbs/op slightly (reader-helping flushes,
	// CAS retries). Throughput cells are NOT comparable with spin-mode
	// reports in any case — Compare surfaces the config difference.
	VirtualClock bool
	Set          []SetCell
	Store        []StoreCell
	Net          []NetCell
	Combine      []CombineCell
	Overload     []OverloadCell
}

func (m Matrix) withDefaults() Matrix {
	if m.Threads == 0 {
		m.Threads = runtime.GOMAXPROCS(0)
	}
	if m.Duration == 0 {
		m.Duration = 100 * time.Millisecond
	}
	if m.Warmup == 0 {
		m.Warmup = m.Duration / 2
	}
	if m.Warmup < 0 {
		m.Warmup = 0
	}
	if m.Repeats == 0 {
		m.Repeats = 2
	}
	return m
}

// Config renders the matrix knobs for the report header.
func (m Matrix) Config() map[string]string {
	return map[string]string{
		"matrix":   m.Name,
		"threads":  fmt.Sprint(m.Threads),
		"duration": m.Duration.String(),
		"warmup":   m.Warmup.String(),
		"repeats":  fmt.Sprint(m.Repeats),
		"seed":     fmt.Sprint(m.Seed),
		"vclock":   fmt.Sprint(m.VirtualClock),
	}
}

// Run executes every cell — warmup window discarded, repeats folded
// through the stats kernel — and returns the validated report.
func (m Matrix) Run() (*Report, error) {
	m = m.withDefaults()
	if len(m.Set) == 0 && len(m.Store) == 0 && len(m.Net) == 0 && len(m.Combine) == 0 && len(m.Overload) == 0 {
		return nil, fmt.Errorf("bench: matrix %q has no cells", m.Name)
	}
	rep := NewReport("bench-matrix", m.Config())
	for _, c := range m.Set {
		m.runSet(rep, c)
	}
	for _, c := range m.Store {
		if err := m.runStore(rep, c); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Net {
		if err := m.runNet(rep, c); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Combine {
		if err := m.runCombine(rep, c); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	for _, c := range m.Overload {
		if err := m.runOverload(rep, c); err != nil {
			return nil, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
	}
	if err := rep.Validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runSet measures one data-structure cell via the figure harness.
func (m Matrix) runSet(rep *Report, c SetCell) {
	total := m.Warmup + m.Duration*time.Duration(m.Repeats)
	inst := harness.Build(harness.Spec{
		DS: c.DS, Policy: c.Policy, Mode: c.Mode,
		KeyRange: c.KeyRange, Duration: total,
		VirtualClock: m.VirtualClock,
	})
	inst.Prefill()
	w := harness.Workload{Threads: m.Threads, UpdatePct: c.UpdatePct, Duration: m.Duration}
	if m.Warmup > 0 {
		warm := w
		warm.Duration = m.Warmup
		harness.RunWorkload(inst, warm)
	}
	res := harness.RepeatRuns(m.Repeats, func() harness.Result {
		return harness.RunWorkload(inst, w)
	})
	id := c.ID()
	rep.Add(Cell{
		ID: id + "/throughput", Unit: "ops/s", Value: res.Throughput,
		Ops: res.Ops, PWBs: res.PWBs, PFences: res.PFences,
		NsPerOp: res.NsPerOp, AllocsPerOp: res.AllocsPerOp,
	})
	rep.Add(Cell{
		ID: id + "/pwbs_per_op", Unit: "pwbs/op", Value: res.PWBRate,
		LowerIsBetter: true,
	})
}

// runStore measures one service cell: per-op persistence through
// Direct sessions.
func (m Matrix) runStore(rep *Report, c StoreCell) error {
	return m.runEmbedded(rep, c.ID(),
		store.Options{Shards: c.Shards, Policy: c.Policy},
		workload.Spec{Mix: c.Mix, Dist: c.Dist, Records: c.Records})
}

// runCombine measures one embedded flat-combining cell: the store gets
// the cell's combining window, and the workload runner drives it in
// Combined mode at the cell's vector depth — every worker a concurrent
// announcer, every window fenced once by whichever announcer wins the
// shard's combiner lock. Measurement is runStore's, so combine cells
// compare directly against the per-op store cells and the server-side
// net cells.
func (m Matrix) runCombine(rep *Report, c CombineCell) error {
	return m.runEmbedded(rep, c.ID(),
		store.Options{Shards: c.Shards, Policy: c.Policy, CombineWindow: c.Window, CombineNoCoalesce: c.NoCoalesce},
		workload.Spec{Mix: c.Mix, Dist: c.Dist, Records: c.Records, Mode: store.Combined, Depth: c.Depth, HotKeys: c.HotKeys})
}

// loadStore builds the sharded store a store-backed cell runs against
// (o carries the cell's shard, policy and combining knobs; sizing and
// cost mode come from here) and YCSB-loads it.
func (m Matrix) loadStore(o store.Options, records uint64) (*store.Store, error) {
	o.ExpectedKeys = int(records) * 3
	o.Mode = dstruct.Automatic
	o.VirtualClock = m.VirtualClock
	st, err := store.New(o)
	if err != nil {
		return nil, err
	}
	workload.Load(st, records, m.Threads)
	return st, nil
}

// measure runs one discarded warmup window (when configured), then
// m.Repeats measured windows; run receives each window's length.
func measure[R any](m Matrix, run func(time.Duration) (R, error)) ([]R, error) {
	if m.Warmup > 0 {
		if _, err := run(m.Warmup); err != nil {
			return nil, err
		}
	}
	out := make([]R, 0, m.Repeats)
	for i := 0; i < m.Repeats; i++ {
		r, err := run(m.Duration)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// runEmbedded measures one in-process cell: build and load the store,
// then drive the workload runner — warmup discarded, repeats folded.
func (m Matrix) runEmbedded(rep *Report, id string, o store.Options, spec workload.Spec) error {
	st, err := m.loadStore(o, spec.Records)
	if err != nil {
		return err
	}
	spec.Threads, spec.Seed = m.Threads, m.Seed
	runs, err := measure(m, func(d time.Duration) (workload.Result, error) {
		sp := spec
		sp.Duration = d
		return workload.Run(st, sp)
	})
	if err != nil {
		return err
	}
	var tput, pwbRate, p99 []float64
	cell := Cell{ID: id + "/throughput", Unit: "ops/s"}
	for _, r := range runs {
		tput = append(tput, r.OpsPerSec)
		pwbRate = append(pwbRate, r.PWBsPerOp)
		p99 = append(p99, float64(r.P99.Nanoseconds()))
		cell.Ops += r.Ops
		cell.PWBs += r.PWBs
		cell.PFences += r.PFences
		cell.P50Ns += r.P50.Nanoseconds()
		cell.P95Ns += r.P95.Nanoseconds()
		cell.P99Ns += r.P99.Nanoseconds()
		cell.NsPerOp += r.NsPerOp
		cell.AllocsPerOp += r.AllocsPerOp
	}
	n := int64(m.Repeats)
	cell.Value = stats.Summarize(tput)
	cell.P50Ns /= n
	cell.P95Ns /= n
	cell.P99Ns /= n
	cell.NsPerOp /= float64(n)
	cell.AllocsPerOp /= float64(n)
	rep.Add(cell)
	rep.Add(Cell{
		ID: id + "/pwbs_per_op", Unit: "pwbs/op", Value: stats.Summarize(pwbRate),
		LowerIsBetter: true,
	})
	m.addP99(rep, id, p99)
	return nil
}

// addP99 emits the optional tail-latency cell (Matrix.Latency).
func (m Matrix) addP99(rep *Report, id string, p99 []float64) {
	if m.Latency {
		rep.Add(Cell{
			ID: id + "/p99", Unit: "ns", Value: stats.Summarize(p99),
			LowerIsBetter: true,
		})
	}
}

// runServed is the scaffold of the served cells: build and load the
// store, boot the group-commit server with so over in-process pipe
// transports, and drive the pipelining client load generator — warmup
// discarded, one Result per measured repeat. check, when non-nil, runs
// against the live server after the last repeat.
func (m Matrix) runServed(o store.Options, so server.Options, spec client.Spec, check func(*server.Server) error) ([]client.Result, error) {
	st, err := m.loadStore(o, spec.Records)
	if err != nil {
		return nil, err
	}
	srv := server.New(st, so)
	defer srv.Close()
	dial := func() (net.Conn, error) {
		cc, sc := net.Pipe()
		go srv.ServeConn(sc)
		return cc, nil
	}
	spec.Seed = m.Seed
	runs, err := measure(m, func(d time.Duration) (client.Result, error) {
		sp := spec
		sp.Duration = d
		return client.Run(dial, sp)
	})
	if err == nil && check != nil {
		err = check(srv)
	}
	return runs, err
}

// runNet measures one network front-end cell. Throughput and latency
// are client-observed; pwbs/pfences come from the server-side
// instruction deltas per acknowledged op.
func (m Matrix) runNet(rep *Report, c NetCell) error {
	// Metrics ride along in every net cell: the committed matrix numbers
	// carry the observability cost, and the check holds the striped
	// counters to the server's own acked-op count.
	runs, err := m.runServed(
		store.Options{Shards: c.Shards, Policy: c.Policy},
		server.Options{Metrics: true},
		client.Spec{Mix: c.Mix, Dist: c.Dist, Records: c.Records, Conns: c.Conns, Depth: c.Depth},
		func(srv *server.Server) error {
			if got, want := srv.Metrics().OpsTotal(), srv.Stats().OpsServed; got != want {
				return fmt.Errorf("bench: metrics op counters sum to %d, server acked %d", got, want)
			}
			return nil
		})
	if err != nil {
		return err
	}
	var tput, pwbRate, p99, perBatch []float64
	id := c.ID()
	cell := Cell{ID: id + "/throughput", Unit: "ops/s"}
	for _, r := range runs {
		tput = append(tput, r.OpsPerSec)
		pwbRate = append(pwbRate, r.PWBsPerOp)
		p99 = append(p99, float64(r.P99.Nanoseconds()))
		perBatch = append(perBatch, r.OpsPerBatch)
		cell.Ops += r.ServerOps
		cell.PWBs += r.PWBs
		cell.PFences += r.PFences
		cell.P50Ns += r.P50.Nanoseconds()
		cell.P95Ns += r.P95.Nanoseconds()
		cell.P99Ns += r.P99.Nanoseconds()
	}
	n := int64(m.Repeats)
	cell.Value = stats.Summarize(tput)
	cell.P50Ns /= n
	cell.P95Ns /= n
	cell.P99Ns /= n
	rep.Add(cell)
	rep.Add(Cell{
		ID: id + "/pwbs_per_op", Unit: "pwbs/op", Value: stats.Summarize(pwbRate),
		LowerIsBetter: true,
	})
	// The batching headline: acknowledged ops per group commit. Tracks
	// the pipeline depth in the closed loop, so Compare can gate the
	// amortization itself, not just its downstream pwbs/op effect.
	rep.Add(Cell{
		ID: id + "/ops_per_batch", Unit: "ops/batch", Value: stats.Summarize(perBatch),
	})
	m.addP99(rep, id, p99)
	return nil
}

// runOverload measures one admission-control cell: the server runs
// with the cell's rate cap and the closed loop pushes flat out — the
// server sheds the excess with BUSY. The pipe transport delivers every
// shed response, so the client's shed count must equal the server's
// shed delta exactly; a mismatch fails the cell (lost-shed accounting
// would make the shed_rate trajectory lie).
func (m Matrix) runOverload(rep *Report, c OverloadCell) error {
	runs, err := m.runServed(
		store.Options{Shards: c.Shards, Policy: c.Policy},
		server.Options{Metrics: true, RateLimit: c.RateLimit, RateBurst: c.Burst},
		client.Spec{Mix: c.Mix, Dist: c.Dist, Records: c.Records, Conns: c.Conns, Depth: c.Depth},
		nil)
	if err != nil {
		return err
	}
	var goodput, shedRate, p99 []float64
	id := c.ID()
	cell := Cell{ID: id + "/goodput", Unit: "ops/s"}
	for _, r := range runs {
		if r.Shed != r.ServerShed {
			return fmt.Errorf("bench: client counted %d shed ops, server %d", r.Shed, r.ServerShed)
		}
		goodput = append(goodput, r.OpsPerSec)
		shedRate = append(shedRate, r.ShedRate)
		p99 = append(p99, float64(r.P99.Nanoseconds()))
		cell.Ops += r.Ops
		cell.P50Ns += r.P50.Nanoseconds()
		cell.P99Ns += r.P99.Nanoseconds()
	}
	n := int64(m.Repeats)
	cell.Value = stats.Summarize(goodput)
	cell.P50Ns /= n
	cell.P99Ns /= n
	rep.Add(cell)
	rep.Add(Cell{
		ID: id + "/shed_rate", Unit: "shed/offered", Value: stats.Summarize(shedRate),
	})
	rep.Add(Cell{
		ID: id + "/p99", Unit: "ns", Value: stats.Summarize(p99),
		LowerIsBetter: true,
	})
	return nil
}

// CrossSet expands the cross product of structures × policies × modes ×
// update ratios into set cells, skipping the one inapplicable
// combination (link-and-persist on the NM-BST, as in Figure 7).
func CrossSet(dss, policies []string, modes []dstruct.Mode, keyRange uint64, upds []int) []SetCell {
	var out []SetCell
	for _, ds := range dss {
		for _, pol := range policies {
			if pol == core.PolicyLAP && ds == "bst" {
				continue
			}
			for _, mode := range modes {
				for _, u := range upds {
					out = append(out, SetCell{
						DS: ds, Policy: pol, Mode: mode, KeyRange: keyRange, UpdatePct: u,
					})
				}
			}
		}
	}
	return out
}

// Presets are the named matrices the CLI and CI run. "smoke" is the CI
// perf-gate: a small fixed grid, cheap enough for every push, exercising
// both the figure harness and the store service. "full" is the nightly
// matrix: every structure and headline policy plus the YCSB mixes.
func Presets() map[string]Matrix {
	return map[string]Matrix{
		"smoke": {
			Name:     "smoke",
			Duration: 80 * time.Millisecond,
			Warmup:   40 * time.Millisecond,
			Repeats:  2,
			Seed:     1,
			Set: CrossSet(
				[]string{"bst", "hashtable"},
				[]string{core.PolicyPlain, core.PolicyHT},
				[]dstruct.Mode{dstruct.Automatic},
				4096, []int{0, 50},
			),
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
		},
		// groupcommit is the fence-amortization comparison: the same
		// YCSB mixes measured in-process with per-op persistence (the
		// store cells — the unbatched baseline) and through the
		// group-commit server at increasing pipeline depths (the net
		// cells). Single-threaded / single-connection so the pwbs/op
		// cells are near-deterministic; at depth ≥ 8 the net cells'
		// pwbs/op must sit strictly below the same mix's store cell,
		// and pfences per op collapse (visible in the cells' raw
		// counts). BENCH_groupcommit.json is this matrix's committed
		// trajectory point.
		"groupcommit": {
			Name:     "groupcommit",
			Threads:  1,
			Duration: 150 * time.Millisecond,
			Warmup:   75 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
			Net: []NetCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 1},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 8},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 32},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 8},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Conns: 1, Depth: 32},
			},
		},
		// combining is the embedded fence-amortization comparison — the
		// flat-combining answer to groupcommit's pipelined server: the
		// same YCSB mixes measured in-process with per-op persistence
		// (the store cells) and through Combined sessions announcing
		// depth-32 vectors into window-128 per-shard combiners — the
		// window spans one full announce wave (4 threads x depth 32), so
		// a whole wave commits under one fence. The combine cells'
		// pwbs/op must
		// sit at or below the depth-32 net cells committed in
		// BENCH_groupcommit.json — the combiner merges windows ACROSS
		// sessions, which a per-connection pipeline cannot. The mix-G
		// pair is the net-delta coalescing headline: self-cancelling ±1
		// FAA traffic on one hot counter, measured with coalescing on
		// (coal) and off (raw); the coal cell must persist ≥10x fewer
		// lines per op. BENCH_combining.json is this matrix's committed
		// trajectory point.
		"combining": {
			Name:     "combining",
			Threads:  4,
			Duration: 150 * time.Millisecond,
			// Mix d inserts draw from a bounded key range; until the range
			// saturates, every insert dirties fresh lines and pwbs/op sits
			// ~2x above steady state. The long warmup runs the cell past
			// that knee so the committed numbers are the plateau, not the
			// fill transient.
			Warmup:  300 * time.Millisecond,
			Repeats: 3,
			Seed:    1,
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192},
			},
			Combine: []CombineCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128},
				{Mix: "d", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128},
				{Mix: "g", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128, HotKeys: 1},
				{Mix: "g", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192, Depth: 32, Window: 128, HotKeys: 1, NoCoalesce: true},
			},
		},
		// overload is the admission-control trajectory: the same mix
		// offered flat out against a rate-capped server and against the
		// uncapped control. The capped cells' goodput must track the cap
		// (the rate limiter meters wall-clock ops/s, so these cells are
		// stable across machine speeds) with a nonzero shed_rate and a
		// bounded goodput p99; the control cell pins what the same loop
		// does with shedding off. BENCH_overload.json is this matrix's
		// committed trajectory point.
		"overload": {
			Name:     "overload",
			Duration: 200 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Overload: []OverloadCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192,
					Conns: 2, Depth: 8, RateLimit: 3000, Burst: 32},
				{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192,
					Conns: 2, Depth: 8, RateLimit: 3000, Burst: 32},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 4, Records: 8192,
					Conns: 2, Depth: 8},
			},
		},
		"full": {
			Name:     "full",
			Duration: 200 * time.Millisecond,
			Warmup:   100 * time.Millisecond,
			Repeats:  3,
			Seed:     1,
			Latency:  true,
			Set: CrossSet(
				[]string{"bst", "hashtable", "list", "skiplist"},
				[]string{core.PolicyPlain, core.PolicyAdjacent, core.PolicyHT, core.PolicyLAP},
				[]dstruct.Mode{dstruct.Automatic},
				10_000, []int{0, 5, 50},
			),
			Store: []StoreCell{
				{Mix: "a", Dist: workload.DistUniform, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "b", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "c", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
				{Mix: "f", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000},
			},
			Net: []NetCell{
				{Mix: "a", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000, Conns: 2, Depth: 16},
				{Mix: "b", Dist: workload.DistZipfian, Policy: core.PolicyHT, Shards: 8, Records: 20_000, Conns: 2, Depth: 16},
			},
		},
	}
}

// Preset looks up a named matrix.
func Preset(name string) (Matrix, bool) {
	m, ok := Presets()[name]
	return m, ok
}

// PresetNames lists the preset matrices in a stable order.
func PresetNames() []string {
	return []string{"smoke", "groupcommit", "combining", "overload", "full"}
}
