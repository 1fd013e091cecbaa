package main

// layerMetrics derives the per-layer metrics from the traced window, the
// ladder rungs and the recoveries. Metrics of a layer the workload does
// not reach (the client and server on the embedded workloads, deletes
// where the mix has none) read 0.
func (b *bench) layerMetrics(sum *traceSummary, in *instance) []metric {
	traced, so := in.traced, in.sessOps
	mean := func(n spanName) float64 { return sum[n].meanNs() }
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }

	// Client, server and the svc ladder rungs above the store.
	var opsPerBatch, opP50, opP99, commitP99, shed, connErrs float64
	var windowUs, execUs, applyUs, commitUs float64
	if b.w.svc {
		s0, s1 := traced.s0.srv, traced.s1.srv
		opsPerBatch = ratio(float64(s1.OpsServed-s0.OpsServed), float64(s1.Batches-s0.Batches))
		lat, commit := traced.s1.lat, traced.s1.commit
		lat.Sub(&traced.s0.lat)
		commit.Sub(&traced.s0.commit)
		opP50, opP99 = float64(lat.Quantile(0.50)), float64(lat.Quantile(0.99))
		commitP99 = float64(commit.Quantile(0.99))
		shed = float64(s1.ShedBusy + s1.ShedDraining - s0.ShedBusy - s0.ShedDraining)
		for cause, n := range s1.ConnErrors {
			connErrs += float64(n - s0.ConnErrors[cause])
		}
		windowUs = traced.windowUs
		execUs = mean(spServerExec) / 1e3
		applyUs, commitUs = mean(spStoreApply)/1e3, mean(spStoreCommit)/1e3
	}
	add("client.send_ns_per_op", "ns", mean(spClientSend))
	add("client.flush_us_per_window", "us", mean(spClientFlush)/1e3)
	add("client.wait_us_per_window", "us", mean(spClientWait)/1e3)
	add("client.recv_ns_per_op", "ns", mean(spClientRecv))
	add("client.window_us", "us", windowUs)
	add("server.ops_per_batch", "1/batch", opsPerBatch)
	add("server.op_p50_ns", "ns", opP50)
	add("server.op_p99_ns", "ns", opP99)
	add("server.commit_p99_ns", "ns", commitP99)
	add("server.shed_ops", "count", shed)
	add("server.conn_errors", "count", connErrs)
	add("server.exec_us_per_window", "us", execUs)
	add("server.transport_us_per_window", "us", nonzero(windowUs, windowUs-execUs))
	add("server.self_us_per_window", "us", nonzero(execUs, execUs-applyUs-commitUs))
	add("store.apply_us_per_window", "us", applyUs)
	add("store.commit_us_per_window", "us", commitUs)

	// Store session against the standalone hashtable, op by op.
	var calls, tax float64
	for k := opKind(0); k < numKinds; k++ {
		calls += float64(sum[spStoreGet+spanName(k)].calls)
	}
	for k := opKind(0); k < numKinds; k++ {
		sn, dn := mean(spStoreGet+spanName(k)), mean(spDstructGet+spanName(k))
		add("store."+kindNames[k]+"_ns", "ns", sn)
		add("dstruct."+kindNames[k]+"_ns", "ns", dn)
		tax += ratio(float64(sum[spStoreGet+spanName(k)].calls), calls) * (sn - dn)
	}
	add("store.tax_ns_per_op", "ns", tax)
	for k := opKind(0); k < numKinds; k++ {
		add("core.pwbs_per_"+kindNames[k], "1/op", ratio(float64(so[k].pwbs), float64(so[k].calls)))
		add("core.fences_per_"+kindNames[k], "1/op", ratio(float64(so[k].fences), float64(so[k].calls)))
	}

	// Unit costs and the workload's instruction mix: how much of an
	// operation's wall time the modeled persistence accounts for.
	pwbNs, fenceNs := mean(spPmemPWB), mean(spPmemFence)
	drainNs := mean(spPmemPWBFence) - pwbNs - fenceNs
	add("core.pload_ns", "ns", mean(spCoreLoad))
	add("core.pstore_ns", "ns", mean(spCoreStore))
	add("pmem.pwb_ns", "ns", pwbNs)
	add("pmem.fence_ns", "ns", fenceNs)
	add("pmem.drain_ns_per_line", "ns", drainNs)
	mix, ops := traced.stats, traced.ops
	if b.w.svc {
		// The server's instructions run on its own sessions; the Exec
		// rung replays the same windows on sessions the benchmark owns.
		mix, ops = in.ex.stats, float64(in.ex.ops)
	}
	pwbs, fences := ratio(float64(mix.PWBs), ops), ratio(float64(mix.PFences), ops)
	drained := ratio(float64(mix.Drained), ops)
	add("pmem.loads_per_op", "1/op", ratio(float64(mix.Loads), ops))
	add("pmem.stores_per_op", "1/op", ratio(float64(mix.Stores), ops))
	add("pmem.rmws_per_op", "1/op", ratio(float64(mix.RMWs), ops))
	add("pmem.drained_per_fence", "1/fence", ratio(float64(mix.Drained), float64(mix.PFences)))
	opNs := ratio(clients*1e9, median(traced.tput))
	add("pmem.persist_share", "frac", ratio(pwbs*pwbNs+fences*fenceNs+drained*drainNs, opNs))

	// Heap and recovery.
	add("pheap.growth_words_per_kop", "words/kop", traced.growthWordsPerKop)
	add("pheap.central_blocks", "count", float64(in.centralBlocks))
	add("pheap.used_frac", "frac", ratio(float64(in.wm), float64(in.words)))
	var shardMax, shardSum float64
	for _, d := range in.rec.Shards {
		shardSum += d.Seconds()
		shardMax = max(shardMax, d.Seconds())
	}
	add("store.recover_shard_max_s", "s", shardMax)
	add("store.recover_shard_sum_s", "s", shardSum)
	add("store.keys_recovered", "count", float64(in.rec.Keys))

	// The benchmark's own cost.
	add("bench.gen_ns_per_op", "ns", in.genNs)
	add("bench.trace_overhead_frac", "frac", 1-ratio(median(traced.tput), median(in.plain.tput)))
	return ms
}

// nonzero returns v when the rung it is derived from ran, else 0.
func nonzero(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return v
}
