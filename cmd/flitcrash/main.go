// Command flitcrash runs crash-recovery validation in two modes.
//
// The default mode is randomized: workers hammer a durable structure,
// crash at seeded instruction counts, the persistent image is recovered,
// and the surviving state is checked for durable linearizability.
//
// With -dlcheck it runs the systematic enumerator (internal/dlcheck)
// instead: one recorded execution per round is checked at every
// PWB/PFence boundary (bounded by -dlbudget) across the structures, the
// durable queue and the sharded store. On a violation the minimal repro
// trace (crash boundary + truncated schedule + recovered-state diff) is
// printed and, with -dltrace, written to a file for CI artifacts.
//
// With -chaos it runs the service-boundary battery (internal/crashtest
// chaos harness): real client pipelines against the network server under
// injected transport faults (resets, partial writes, delays, blackholes),
// admission-control overload, and mid-run drain; the store then crashes
// (DropUnfenced) and every acknowledged operation must survive recovery.
// Each run also replays a deliberately broken drain that acks without
// executing — the battery must flag it, or the run fails as toothless.
// Failure traces go to -chaostrace.
//
// A non-zero exit means a violation was found.
//
// Usage:
//
//	flitcrash -rounds 200
//	flitcrash -ds bst -mode manual -policy flit-adjacent -rounds 50 -v
//	flitcrash -dlcheck -rounds 2 -dlbudget 64 -dltrace dlcheck-trace.txt
//	flitcrash -dlcheck -ds store -dlbudget 0
//	flitcrash -chaos -rounds 2 -chaostrace chaos-trace.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"flit/internal/core"
	"flit/internal/crashtest"
	"flit/internal/dlcheck"
	"flit/internal/dstruct"
	"flit/internal/pheap"
	"flit/internal/pmem"
	"flit/internal/store"
)

func policyByName(name string, words int) core.Policy {
	// The no-persist baseline fails durable-linearizability checks by
	// design; running it here would report its losses as violations.
	if name == core.PolicyNoPersist {
		fmt.Fprintf(os.Stderr, "flitcrash: policy %q cannot pass a crash check by design; pick a persisting policy\n", name)
		os.Exit(2)
	}
	// Crash testing wants small counter tables: collisions only add
	// flushes, and small tables stress the hashing harder.
	htBytes := 1 << 14
	if name == core.PolicyPacked {
		htBytes = 1 << 12
	}
	pol, err := core.NewPolicyByName(name, words, htBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "flitcrash: %v\n", err)
		os.Exit(2)
	}
	return pol
}

func modeByName(name string) dstruct.Mode {
	m, ok := dstruct.ModeByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "flitcrash: unknown mode %q (known: %v)\n", name, dstruct.Modes)
		os.Exit(2)
	}
	return m
}

func main() {
	rounds := flag.Int("rounds", 60, "seeded crash rounds per combination")
	dsFilter := flag.String("ds", "", "restrict to one structure ("+targetNames(false)+"; with -dlcheck also "+dlOnlyNames()+")")
	modeFilter := flag.String("mode", "", "restrict to one durability mode (automatic|nvtraverse|manual)")
	polFilter := flag.String("policy", "", "restrict to one policy (flit-ht|flit-adjacent|flit-packed|flit-perline|plain|izraelevitz|link-and-persist)")
	seed0 := flag.Int64("seed", 1, "first seed")
	verbose := flag.Bool("v", false, "print every round")
	dl := flag.Bool("dlcheck", false, "systematic mode: check every PWB/PFence boundary of recorded executions")
	dlBudget := flag.Int("dlbudget", 512, "crash points checked per dlcheck run (0 = every boundary)")
	dlTrace := flag.String("dltrace", "", "write violation repro traces to this file (dlcheck mode)")
	chaos := flag.Bool("chaos", false, "chaos mode: fault-injected client/server scenarios, crash, recover, check acked ops")
	chaosTrace := flag.String("chaostrace", "", "write chaos failure traces to this file (chaos mode)")
	flag.Parse()

	if *dl && *chaos {
		fmt.Fprintln(os.Stderr, "flitcrash: -dlcheck and -chaos are mutually exclusive")
		os.Exit(2)
	}
	if *dl {
		os.Exit(runDLCheck(*rounds, *dsFilter, *modeFilter, *polFilter, *seed0, *dlBudget, *dlTrace, *verbose))
	}
	if *chaos {
		os.Exit(runChaos(*rounds, *seed0, *polFilter, *chaosTrace, *verbose))
	}

	const words = 1 << 20
	crashModes := []pmem.CrashMode{pmem.DropUnfenced, pmem.RandomSubset, pmem.PersistAll}
	start := time.Now()
	total, failures := 0, 0

	for _, target := range crashtest.Targets() {
		if *dsFilter != "" && target.Name != *dsFilter {
			continue
		}
		polNames := []string{"flit-ht", "flit-adjacent", "plain"}
		if target.WithLAP {
			polNames = append(polNames, "link-and-persist")
		}
		if *polFilter != "" {
			if *polFilter == core.PolicyLAP && !target.WithLAP {
				continue // inapplicable (general stores, not CAS-only)
			}
			polNames = []string{*polFilter}
		}
		modes := dstruct.Modes
		if *modeFilter != "" {
			modes = []dstruct.Mode{modeByName(*modeFilter)}
		}
		for _, mode := range modes {
			for _, polName := range polNames {
				for r := 0; r < *rounds; r++ {
					seed := *seed0 + int64(r)
					cm := crashModes[r%len(crashModes)]
					pol := policyByName(polName, words)
					mcfg := pmem.DefaultConfig(words)
					// Crash validation never reads a latency number: the
					// virtual clock keeps modeled costs at spin-free speed.
					mcfg.VirtualClock = true
					cfg := dstruct.Config{
						Heap: pheap.New(pmem.New(mcfg)), Policy: pol, Mode: mode,
						RootSlot: 0, Stride: dstruct.StrideFor(pol),
					}
					v, _ := crashtest.Run(cfg, target, crashtest.DefaultOptions(seed, cm))
					total++
					if v != nil {
						failures++
						fmt.Printf("VIOLATION %s/%s/%s seed=%d crash=%v\n%v\n",
							target.Name, mode, polName, seed, cm, v)
					} else if *verbose {
						fmt.Printf("ok %s/%s/%s seed=%d crash=%v\n", target.Name, mode, polName, seed, cm)
					}
				}
			}
		}
	}
	if total == 0 {
		fmt.Fprintf(os.Stderr, "flitcrash: no rounds matched -ds %q / -mode %q / -policy %q (structures: %s; %s need -dlcheck; link-and-persist applies only to %s)\n",
			*dsFilter, *modeFilter, *polFilter, targetNames(false), dlOnlyNames(), targetNames(true))
		os.Exit(2)
	}
	fmt.Printf("flitcrash: %d rounds, %d violations, %v\n", total, failures, time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// storeBatteries is the -dlcheck store table: one row per route into
// the sharded store, each enumerated over durability modes × policies ×
// rounds on a fresh crashtest.NewDLStore. The row names are the -ds
// values; link-and-persist applies to every row.
var storeBatteries = []struct {
	name string
	run  func(st *store.Store, opts dlcheck.Options) *dlcheck.Report
}{
	// Per-op Direct sessions: every operation persists before it responds.
	{"store", func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return crashtest.RunStoreDL(st, store.Direct, opts)
	}},
	// The batched (group-commit) request path: the network server's
	// executor, one commit fence per pipelined batch, responses recorded
	// only after it.
	{"store-batched", func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return crashtest.RunStoreDL(st, store.Batched, opts)
	}},
	// The embedded flat-combining path: one fence per combining window,
	// so boundaries land inside windows merging several sessions' vectors.
	{"store-combined", func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return crashtest.RunStoreDL(st, store.Combined, opts)
	}},
	// The online shard-split path: a 4→6 split (non-doubling, so keys move
	// between serving shards as well as into new ones) migrates while the
	// workers run; every boundary must recover a complete, duplicate-free
	// keyspace.
	{"store-split", func(st *store.Store, opts dlcheck.Options) *dlcheck.Report {
		return crashtest.RunStoreSplitDL(st, 6, opts)
	}},
}

// targetNames joins the crash-test structures' names for help and error
// text; lapOnly keeps those link-and-persist applies to.
func targetNames(lapOnly bool) string {
	var names []string
	for _, t := range crashtest.Targets() {
		if t.WithLAP || !lapOnly {
			names = append(names, t.Name)
		}
	}
	return strings.Join(names, "|")
}

// dlOnlyNames joins the -ds values only -dlcheck runs: the durable queue
// and the store table's rows.
func dlOnlyNames() string {
	names := []string{"queue"}
	for _, b := range storeBatteries {
		names = append(names, b.name)
	}
	return strings.Join(names, "|")
}

// runDLCheck drives the systematic battery: structures × modes ×
// policies, the durable queue, and every row of storeBatteries, each
// recorded execution checked at every (budgeted) persist boundary.
func runDLCheck(rounds int, dsFilter, modeFilter, polFilter string, seed0 int64, budget int, tracePath string, verbose bool) int {
	start := time.Now()
	total, points, records := 0, 0, 0
	var violations []string

	report := func(name string, rep *dlcheck.Report, seed int64) {
		total++
		points += rep.Points
		records += rep.Records
		if rep.Violation != nil {
			violations = append(violations, rep.Violation.Error())
			fmt.Printf("VIOLATION %s seed=%d\n%v\n", name, seed, rep.Violation)
		} else if verbose {
			fmt.Printf("ok %s seed=%d records=%d fences=%d points=%d ops=%d\n",
				name, seed, rep.Records, rep.Fences, rep.Points, rep.Ops)
		}
	}
	optsFor := func(seed int64) dlcheck.Options {
		opts := dlcheck.DefaultOptions(seed)
		opts.Budget = budget
		return opts
	}
	modes := dstruct.Modes
	if modeFilter != "" {
		modes = []dstruct.Mode{modeByName(modeFilter)}
	}
	// Validate the policy filter once, up front: policyByName rejects
	// unknown names and the by-design-failing no-persist baseline, so the
	// store path (which constructs policies via store.New, not
	// policyByName) can't report a usage error as a violation.
	if polFilter != "" {
		policyByName(polFilter, dlcheck.Words)
	}
	polNamesFor := func(withLAP bool) []string {
		if polFilter != "" {
			if polFilter == core.PolicyLAP && !withLAP {
				return nil // inapplicable to this target; skip, don't panic
			}
			return []string{polFilter}
		}
		names := []string{core.PolicyHT, core.PolicyAdjacent, core.PolicyPlain, core.PolicyIz}
		if withLAP {
			names = append(names, core.PolicyLAP)
		}
		return names
	}

	for _, target := range crashtest.Targets() {
		if dsFilter != "" && target.Name != dsFilter {
			continue
		}
		for _, mode := range modes {
			for _, polName := range polNamesFor(target.WithLAP) {
				for r := 0; r < rounds; r++ {
					seed := seed0 + int64(r)
					rep := dlcheck.RunSet(dlcheck.NewConfig(policyByName(polName, dlcheck.Words), mode), target.DL(), optsFor(seed))
					report(fmt.Sprintf("%s/%s/%s", target.Name, mode, polName), rep, seed)
				}
			}
		}
	}

	// The queue passes explicit pflags (manual durability); honor a -mode
	// filter by treating its runs as manual-only. Link-and-persist
	// applies (CAS-only stores).
	if (dsFilter == "" || dsFilter == "queue") && (modeFilter == "" || modeByName(modeFilter) == dstruct.Manual) {
		for _, polName := range polNamesFor(true) {
			for r := 0; r < rounds; r++ {
				seed := seed0 + int64(r)
				opts := optsFor(seed)
				opts.OpsPerWorker = 8 // whole-history FIFO search
				rep := crashtest.RunQueueDL(dlcheck.NewConfig(policyByName(polName, dlcheck.Words), dstruct.Manual), opts)
				report("queue/"+polName, rep, seed)
			}
		}
	}

	for _, b := range storeBatteries {
		if dsFilter != "" && dsFilter != b.name {
			continue
		}
		for _, mode := range modes {
			for _, polName := range polNamesFor(true) {
				for r := 0; r < rounds; r++ {
					seed := seed0 + int64(r)
					st, err := crashtest.NewDLStore(polName, mode)
					if err != nil {
						fmt.Fprintf(os.Stderr, "flitcrash: %v\n", err)
						return 2
					}
					report(fmt.Sprintf("%s/%s/%s", b.name, mode, polName), b.run(st, optsFor(seed)), seed)
				}
			}
		}
	}

	if total == 0 {
		fmt.Fprintf(os.Stderr, "flitcrash: no dlcheck runs matched -ds %q / -mode %q / -policy %q (structures: %s|%s; the queue is manual-only, link-and-persist applies only to %s|queue and the store)\n",
			dsFilter, modeFilter, polFilter, targetNames(false), dlOnlyNames(), targetNames(true))
		return 2
	}
	fmt.Printf("flitcrash -dlcheck: %d runs, %d persist records, %d crash points checked, %d violations, %v\n",
		total, records, points, len(violations), time.Since(start).Round(time.Millisecond))
	if len(violations) > 0 {
		if tracePath != "" {
			if err := os.WriteFile(tracePath, []byte(strings.Join(violations, "\n\n")), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "flitcrash: writing %s: %v\n", tracePath, err)
			} else {
				fmt.Printf("flitcrash -dlcheck: repro traces written to %s\n", tracePath)
			}
		}
		return 1
	}
	return 0
}
