// Command flitstore runs FliT-Store, the sharded durable key-value
// service, through YCSB-style load → run → injected-crash → recovery
// cycles and emits a machine-readable JSON report (throughput, p50/p95/p99
// operation latency, flush counts, per-shard recovery times, and the
// durable-linearizability verdict of the internal/hist checker).
//
// Usage:
//
//	flitstore -policy=flit-ht -shards=8 -workload=a -dist=zipfian
//	flitstore -workload=b -dist=uniform -cycles=3 -out=report.json
//	flitstore -policy=plain -mode=nvtraverse -records=50000 -duration=1s
//
// The JSON report goes to stdout (or -out); a human-readable summary
// table is printed to stderr unless -quiet is set. Exit status 1 means
// the checker found a durable-linearizability violation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"flit/internal/bench"
	"flit/internal/bench/stats"
	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/dstruct"
	"flit/internal/harness"
	"flit/internal/pmem"
	"flit/internal/store"
	"flit/internal/workload"
)

// report is the top-level JSON document. The service-specific sections
// (load, cycles, crash/recovery) carry the full detail; Bench restates
// the per-cycle performance through the repo-wide internal/bench schema
// so flitstore output joins the BENCH_*.json perf trajectory and can be
// diffed with `flitbench compare`.
type report struct {
	Config configJSON    `json:"config"`
	Load   loadJSON      `json:"load"`
	Cycles []cycleJSON   `json:"cycles"`
	Check  string        `json:"check"` // "ok" | "violation" | "skipped"
	Bench  *bench.Report `json:"bench"`
}

type configJSON struct {
	Shards    int     `json:"shards"`
	Buckets   int     `json:"buckets_per_shard"`
	Policy    string  `json:"policy"`
	Mode      string  `json:"mode"`
	Workload  string  `json:"workload"`
	Dist      string  `json:"dist"`
	ZipfS     float64 `json:"zipf_s"`
	Threads   int     `json:"threads"`
	Records   uint64  `json:"records"`
	Duration  string  `json:"duration"`
	Cycles    int     `json:"cycles"`
	CrashMode string  `json:"crash_mode"`
	Seed      int64   `json:"seed"`
}

type loadJSON struct {
	Records   uint64  `json:"records"`
	ElapsedNs int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

type cycleJSON struct {
	Cycle    int             `json:"cycle"`
	Run      workload.Result `json:"run"`
	Crash    *crashJSON      `json:"crash,omitempty"`
	Recovery *recoveryJSON   `json:"recovery,omitempty"`
}

type crashJSON struct {
	RecordedOps int    `json:"recorded_ops"`
	Workers     int    `json:"workers"`
	Crashed     int    `json:"crashed_workers"`
	CrashMode   string `json:"crash_mode"`
	Check       string `json:"check"`
}

type recoveryJSON struct {
	Shards      int     `json:"shards"`
	ElapsedNs   int64   `json:"elapsed_ns"`
	ShardNs     []int64 `json:"shard_ns"`
	SerialNs    int64   `json:"serial_ns"` // sum of per-shard times
	Parallelism float64 `json:"parallel_speedup"`
	Keys        int     `json:"keys_recovered"`
	Relinked    int     `json:"relinked"` // link words rewritten
	Moved       int     `json:"moved"`    // keys copied to another shard
}

func modeByName(name string) (dstruct.Mode, error) {
	if m, ok := dstruct.ModeByName(name); ok {
		return m, nil
	}
	return 0, fmt.Errorf("unknown mode %q (known: %v)", name, dstruct.Modes)
}

func crashModeByName(name string) (pmem.CrashMode, error) {
	for _, m := range []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset, pmem.PersistAll} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown crash mode %q (drop-unfenced|random-subset|persist-all)", name)
}

func main() {
	shards := flag.Int("shards", 8, "shard count (each on its own persistent root)")
	buckets := flag.Int("buckets", 0, "buckets per shard (0 = derive from -records)")
	policy := flag.String("policy", core.PolicyHT, "persistence policy (flit-ht|flit-adjacent|flit-packed|flit-perline|plain|izraelevitz|link-and-persist|no-persist)")
	modeName := flag.String("mode", dstruct.Automatic.String(), "durability mode (automatic|nvtraverse|manual)")
	wl := flag.String("workload", "a", "YCSB mix (a|b|c|d|e|f|g)")
	dist := flag.String("dist", workload.DistZipfian, "key distribution (uniform|zipfian|latest)")
	zipfS := flag.Float64("zipf", workload.DefaultZipfS, "zipfian skew (>1)")
	threads := flag.Int("threads", defaultThreads(), "worker threads")
	duration := flag.Duration("duration", 400*time.Millisecond, "measured run duration per cycle")
	records := flag.Uint64("records", 20_000, "records loaded before the first cycle")
	cycles := flag.Int("cycles", 1, "load → run → crash → recover cycles")
	crashMode := flag.String("crashmode", pmem.RandomSubset.String(), "crash image semantics (drop-unfenced|random-subset|persist-all)")
	crashOps := flag.Int("crash-ops", 240, "recorded ops per worker in the crash phase")
	seed := flag.Int64("seed", 1, "base seed")
	vclock := flag.Bool("vclock", false, "virtual-clock cost accounting (no spin loops; throughput not comparable with spin-mode runs)")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	benchOut := flag.String("bench-json", "", "also write the embedded BenchReport standalone (flitbench compare input)")
	quiet := flag.Bool("quiet", false, "suppress the stderr summary table")
	flag.Parse()

	mode, err := modeByName(*modeName)
	if err != nil {
		fatal(err)
	}
	cm, err := crashModeByName(*crashMode)
	if err != nil {
		fatal(err)
	}

	// Size for the loaded records plus growth from D/E inserts and the
	// crash phases across all cycles.
	expected := int(*records)*2 + 80_000*(*cycles)
	st, err := store.New(store.Options{
		Shards:       *shards,
		Buckets:      *buckets,
		ExpectedKeys: expected,
		Policy:       *policy,
		Mode:         mode,
		VirtualClock: *vclock,
	})
	if err != nil {
		fatal(err)
	}

	rep := report{
		Config: configJSON{
			Shards: st.Opts().Shards, Buckets: st.Opts().Buckets,
			Policy: *policy, Mode: mode.String(),
			Workload: *wl, Dist: *dist, ZipfS: *zipfS,
			Threads: *threads, Records: *records, Duration: duration.String(),
			Cycles: *cycles, CrashMode: cm.String(), Seed: *seed,
		},
		Check: "ok",
	}

	loadElapsed, loadOps := workload.Load(st, *records, *threads)
	rep.Load = loadJSON{Records: *records, ElapsedNs: loadElapsed.Nanoseconds(), OpsPerSec: loadOps}

	// The no-persist baseline cannot pass a crash check by design; run the
	// workload phases but skip injection so the report stays honest.
	skipCrash := *policy == core.PolicyNoPersist

	for c := 0; c < *cycles; c++ {
		res, err := workload.Run(st, workload.Spec{
			Mix: *wl, Dist: *dist, ZipfS: *zipfS,
			Threads: *threads, Duration: *duration,
			Records: *records, Seed: *seed + int64(c)*101,
		})
		if err != nil {
			fatal(err)
		}
		cy := cycleJSON{Cycle: c, Run: res}

		if skipCrash {
			rep.Check = "skipped"
		} else {
			opts := crashtest.DefaultStoreOptions(*seed*1000+int64(c), cm)
			opts.Workers = *threads
			opts.OpsPerWorker = *crashOps
			opts.KeyRange = *records
			opts.KeyOf = workload.Key
			// Scale the countdown window to the op budget (ops cost ~5
			// instrumented instructions each on short chains) so the crash
			// lands mid-run rather than after the workers drain their
			// budgets.
			opts.MinCrash, opts.MaxCrash = 50, int64(*crashOps)*4
			if opts.MaxCrash < opts.MinCrash {
				opts.MaxCrash = opts.MinCrash
			}
			verdict, err := crashtest.RunStore(st, store.Direct, opts)
			if err != nil {
				fatal(err)
			}
			check := "ok"
			if verdict.Violation != nil {
				check = "violation"
				rep.Check = "violation"
				fmt.Fprintf(os.Stderr, "flitstore: cycle %d: %v\n", c, verdict.Violation)
			}
			cy.Crash = &crashJSON{
				RecordedOps: verdict.RecordedOps, Workers: opts.Workers,
				Crashed: verdict.Crashed, CrashMode: cm.String(), Check: check,
			}
			shardNs := make([]int64, len(verdict.Recovery.Shards))
			var serial int64
			for i, d := range verdict.Recovery.Shards {
				shardNs[i] = d.Nanoseconds()
				serial += d.Nanoseconds()
			}
			rec := &recoveryJSON{
				Shards:    len(shardNs),
				ElapsedNs: verdict.Recovery.Elapsed.Nanoseconds(),
				ShardNs:   shardNs,
				SerialNs:  serial,
				Keys:      verdict.Recovery.Keys,
				Relinked:  verdict.Recovery.Relinked,
				Moved:     verdict.Recovery.Moved,
			}
			if rec.ElapsedNs > 0 {
				rec.Parallelism = float64(serial) / float64(rec.ElapsedNs)
			}
			cy.Recovery = rec
			st = verdict.Store // next cycle runs on the recovered store
		}
		rep.Cycles = append(rep.Cycles, cy)
	}

	// A cell-less bench report (possible with -cycles 0) is not
	// schema-valid; emit the section only when cycles actually ran.
	if br := benchReport(rep); len(br.Cells) > 0 {
		rep.Bench = br
		if *benchOut != "" {
			if err := br.WriteFile(*benchOut); err != nil {
				fatal(err)
			}
		}
	} else if *benchOut != "" {
		fmt.Fprintln(os.Stderr, "flitstore: no cycles ran; skipping -bench-json")
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fatal(err)
		}
	} else {
		fmt.Println(string(enc))
	}
	if !*quiet {
		printSummary(rep)
	}
	if rep.Check == "violation" {
		os.Exit(1)
	}
}

// benchReport restates the per-cycle run results as internal/bench
// schema cells: one throughput + flush-rate pair per cycle, plus an
// "all" aggregate summarizing across cycles (the cell a CI gate would
// diff). Latency tails ride on the throughput cells.
func benchReport(rep report) *bench.Report {
	cfg := rep.Config
	br := bench.NewReport("flitstore", map[string]string{
		"workload": cfg.Workload, "dist": cfg.Dist, "policy": cfg.Policy,
		"mode": cfg.Mode, "shards": fmt.Sprint(cfg.Shards),
		"threads": fmt.Sprint(cfg.Threads), "records": fmt.Sprint(cfg.Records),
		"duration": cfg.Duration, "cycles": fmt.Sprint(cfg.Cycles),
		"seed": fmt.Sprint(cfg.Seed),
	})
	base := bench.SlugID("store", cfg.Workload, cfg.Dist, cfg.Policy,
		fmt.Sprintf("s%d", cfg.Shards), fmt.Sprintf("r%d", cfg.Records))
	var tputs, pwbRates []float64
	for _, cy := range rep.Cycles {
		r := cy.Run
		id := fmt.Sprintf("%s/cycle%d", base, cy.Cycle)
		br.Add(bench.Cell{
			ID: id + "/throughput", Unit: "ops/s", Value: stats.Of(r.OpsPerSec),
			Ops: r.Ops, PWBs: r.PWBs, PFences: r.PFences,
			P50Ns: r.P50.Nanoseconds(), P95Ns: r.P95.Nanoseconds(), P99Ns: r.P99.Nanoseconds(),
			NsPerOp: r.NsPerOp, AllocsPerOp: r.AllocsPerOp,
		})
		br.Add(bench.Cell{
			ID: id + "/pwbs_per_op", Unit: "pwbs/op", Value: stats.Of(r.PWBsPerOp),
			LowerIsBetter: true,
		})
		tputs = append(tputs, r.OpsPerSec)
		pwbRates = append(pwbRates, r.PWBsPerOp)
	}
	if len(tputs) > 0 {
		br.Add(bench.Cell{ID: base + "/all/throughput", Unit: "ops/s", Value: stats.Summarize(tputs)})
		br.Add(bench.Cell{ID: base + "/all/pwbs_per_op", Unit: "pwbs/op",
			Value: stats.Summarize(pwbRates), LowerIsBetter: true})
	}
	return br
}

// printSummary renders the per-cycle numbers with the harness's table
// formatter, one row per cycle.
func printSummary(rep report) {
	t := &harness.Table{
		Title: fmt.Sprintf("flitstore %s/%s/%s shards=%d threads=%d records=%d",
			rep.Config.Workload, rep.Config.Dist, rep.Config.Policy,
			rep.Config.Shards, rep.Config.Threads, rep.Config.Records),
		ColHead: "cycle",
		Cols:    []string{"kops/s", "p50 µs", "p95 µs", "p99 µs", "pwbs/op", "recover ms", "par x", "relinked", "moved"},
		Unit:    "per-cycle",
	}
	for _, c := range rep.Cycles {
		recMs, par, relinked, moved := 0.0, 0.0, 0.0, 0.0
		if c.Recovery != nil {
			recMs = float64(c.Recovery.ElapsedNs) / 1e6
			par = c.Recovery.Parallelism
			relinked, moved = float64(c.Recovery.Relinked), float64(c.Recovery.Moved)
		}
		check := "skipped"
		if c.Crash != nil {
			check = c.Crash.Check
		}
		t.AddRow(fmt.Sprintf("#%d (%s)", c.Cycle, check),
			c.Run.OpsPerSec/1e3,
			float64(c.Run.P50.Nanoseconds())/1e3,
			float64(c.Run.P95.Nanoseconds())/1e3,
			float64(c.Run.P99.Nanoseconds())/1e3,
			c.Run.PWBsPerOp,
			recMs, par, relinked, moved)
	}
	fmt.Fprintln(os.Stderr, t.Format())
}

func defaultThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flitstore:", err)
	os.Exit(1)
}
