package main

import (
	"os"
	"path/filepath"
	"strings"
	"time"

	"tifs/internal/experiments"
	"tifs/internal/sim"
)

// mechanismKinds are the sim.busy_s.<kind> breakdown.
var mechanismKinds = []string{sim.KindNone, sim.KindFDIP, sim.KindDiscontinuity, sim.KindTIFS, sim.KindPerfect, sim.KindProb}

// ledger derives the per-layer metrics of a traced run from its spans,
// the simulations its cold phase ran, and the loop-phase tallies. Cold
// figures are totals per cold pass (the point workload's whole
// sequence); warm and submit figures are means per op. A layer the
// workload does not exercise reads 0.
func (b *bench) ledger(untracedWall float64) map[string]float64 {
	t := b.tr
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	m := map[string]float64{}
	perOp := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	var simEvents, traceEvts float64
	for _, r := range t.results {
		simEvents += float64(r.TotalEvents)
	}
	for _, k := range []string{"sim.runs", "sim.busy_s", "trace.extractions", "trace.busy_s", "sequitur.builds",
		"sequitur.busy_s", "experiments.self_s", "store.puts", "store.put_s"} {
		m[k] = 0
	}
	for _, k := range mechanismKinds {
		m["sim.busy_s."+k] = 0
	}
	for _, id := range experiments.IDs() {
		m["experiments."+id+".s"] = 0
	}
	var engineBusy time.Duration
	var opens, gets, hits, warmGets int
	var openTime, warmGetTime time.Duration
	sweepd := map[string]time.Duration{}
	for i, s := range spans {
		sec := self[i].Seconds()
		switch {
		case s.Phase == phaseCold && s.Layer == layerSim:
			m["sim.runs"]++
			m["sim.busy_s"] += sec
			m["sim.busy_s."+strings.TrimPrefix(s.Name, "sim/")] += sec
			engineBusy += s.dur()
		case s.Phase == phaseCold && s.Layer == layerTrace:
			m["trace.extractions"]++
			m["trace.busy_s"] += sec
			traceEvts += float64(traceEvents(s.Key))
			engineBusy += s.dur()
		case s.Phase == phaseCold && s.Layer == layerSequitur:
			m["sequitur.builds"]++
			m["sequitur.busy_s"] += sec
			engineBusy += s.dur()
		case s.Phase == phaseCold && s.Layer == layerExperiments:
			m["experiments."+strings.TrimPrefix(s.Name, "experiments/")+".s"] += s.dur().Seconds()
		case s.Phase == phaseWarm && s.Layer == layerExperiments:
			m["experiments.self_s"] += sec
		case s.Layer == layerStore && s.Name == "store.put" && (s.Phase == phaseCold || s.Phase == phaseFill):
			m["store.puts"]++
			m["store.put_s"] += s.dur().Seconds()
		case s.Layer == layerStore && s.Name == "store.open" && (s.Phase == phaseWarm || s.Phase == phaseSubmit):
			opens++
			openTime += s.dur()
		case s.Layer == layerStore && s.Name == "store.get" && (s.Phase == phaseWarm || s.Phase == phaseSubmit):
			gets++
			if s.Hit {
				hits++
			}
			if s.Phase == phaseWarm {
				warmGets++
				warmGetTime += s.dur()
			}
		case s.Phase == phaseSubmit && s.Layer == layerSweepd:
			sweepd[s.Name] += s.dur()
		}
	}
	m["sim.ns_per_event"] = ratio(m["sim.busy_s"]*1e9, simEvents)
	m["trace.ns_per_event"] = ratio(m["trace.busy_s"]*1e9, traceEvts)
	passes := float64(max(b.coldPasses, 1))
	m["engine.worker_util"] = ratio(engineBusy.Seconds()/passes, b.metrics["wall_s"]*parallelism)
	for k := range m {
		if strings.HasPrefix(k, "sim.") && k != "sim.ns_per_event" || strings.HasPrefix(k, "experiments.") && k != "experiments.self_s" ||
			k == "trace.extractions" || k == "trace.busy_s" || strings.HasPrefix(k, "sequitur.") || k == "store.puts" || k == "store.put_s" {
			m[k] /= passes
		}
	}
	m["engine.grammar_builds"] = m["sequitur.builds"]
	m["engine.sims_run.cold"] = m["sim.runs"]
	m["engine.sims_run.warm"] = float64(b.warmSims)
	m["engine.sims_run.submit"] = float64(b.submitSims)
	m["engine.store_hits"] = perOp(float64(b.warmStoreHits), b.warmOps)
	m["experiments.self_s"] = perOp(m["experiments.self_s"], b.warmOps)
	m["store.open_s"] = perOp(openTime.Seconds(), opens)
	m["store.gets"] = perOp(float64(warmGets), b.warmOps)
	m["store.get_s"] = perOp(warmGetTime.Seconds(), b.warmOps)
	m["store.get_hit_ratio"] = ratio(float64(hits), float64(gets))
	m["store.log_bytes"] = float64(dirBytes(b.storeDir))
	for _, n := range []string{"submit", "queue", "run"} {
		m["sweepd."+n+"_s"] = perOp(sweepd["sweepd."+n].Seconds(), b.submitOps)
	}
	m["sweepd.events"] = perOp(float64(b.submitEvents), b.submitOps)
	m["sweepd.output_bytes"] = perOp(float64(b.outBytes), b.submitOps)

	// Modelled-component counts, summed over every simulation the cold
	// phase ran (post-warmup, as sim.Result reports them).
	var blockFetches, misses, stall, issued, useful, usefulIssued, discards, lookups, idxMisses, l2Misses, bankWait uint64
	for _, r := range t.results {
		for _, c := range r.PerCore {
			blockFetches += c.BlockFetches
			misses += c.Misses
			stall += c.FetchStallCycles
		}
		issued += r.Prefetch.Issued
		discards += r.Prefetch.Discards
		if r.Prefetch.Issued > 0 {
			useful += r.Prefetch.Hits()
			usefulIssued += r.Prefetch.Issued
		}
		if r.TIFS != nil {
			lookups += r.TIFS.IndexLookups
			idxMisses += r.TIFS.IndexMisses
		}
		l2Misses += r.Uncore.L2Misses
		bankWait += r.Uncore.BankWaitCycles
	}
	m["cpu.block_fetches"] = float64(blockFetches) / passes
	m["cpu.misses"] = float64(misses) / passes
	m["cpu.fetch_stall_cycles"] = float64(stall) / passes
	m["prefetch.issued"] = float64(issued) / passes
	m["prefetch.useful_ratio"] = ratio(float64(useful), float64(usefulIssued))
	m["prefetch.discards"] = float64(discards) / passes
	m["tifs.index_lookups"] = float64(lookups) / passes
	m["tifs.index_miss_ratio"] = ratio(float64(idxMisses), float64(lookups))
	m["uncore.l2_misses"] = float64(l2Misses) / passes
	m["uncore.bank_wait_cycles"] = float64(bankWait) / passes

	m["tracing.overhead_s"] = b.metrics["wall_s"] - untracedWall
	m["tracing.spans"] = float64(len(spans))
	return m
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil && !fi.IsDir() {
			n += fi.Size()
		}
	}
	return n
}
