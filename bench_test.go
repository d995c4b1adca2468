// Benchmarks regenerating every table and figure of the paper's
// evaluation. One benchmark per experiment; each reports the same rows
// the corresponding figure plots (run with -v to see them once).
//
//	go test -bench=. -benchmem
//
// Benchmarks default to the small scale so the full suite runs in
// minutes; set TIFS_BENCH_SCALE=medium or full for paper-sized runs.
//
// The experiment benchmarks run through the process-wide engine, which
// memoizes simulations: configurations shared between figures run once
// per process, and iterations after the first are cache hits. That is
// the deliberate suite-level behaviour under test (the engine is how a
// full regeneration stays fast), but it makes per-experiment ns/op
// order- and iteration-dependent — use BenchmarkSimulatorThroughput and
// BenchmarkMissExtraction, which bypass the engine, as the uncached
// regression signals.
package tifs_test

import (
	"os"
	"sync"
	"testing"

	"tifs"
)

func benchScale(b *testing.B) tifs.Scale {
	b.Helper()
	name := os.Getenv("TIFS_BENCH_SCALE")
	if name == "" {
		return tifs.ScaleSmall
	}
	s, err := tifs.ParseScale(name)
	if err != nil {
		b.Fatalf("TIFS_BENCH_SCALE: %v", err)
	}
	return s
}

var benchOutputOnce sync.Map

// runExperiment executes one experiment b.N times, logging its table on
// the first execution of each benchmark.
func runExperiment(b *testing.B, id string) {
	o := tifs.ExperimentOptions{Scale: benchScale(b)}
	for i := 0; i < b.N; i++ {
		out, err := tifs.RunExperiments([]string{id}, o)
		if err != nil {
			b.Fatal(err)
		}
		if _, logged := benchOutputOnce.LoadOrStore(id, true); !logged {
			b.Log("\n" + out)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTable2System(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkFig1Opportunity(b *testing.B)  { runExperiment(b, "fig1") }
func BenchmarkFig3Repetition(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig5StreamLength(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6Heuristics(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig10Lookahead(b *testing.B)   { runExperiment(b, "fig10") }
func BenchmarkFig11IMLCapacity(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12Traffic(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13Performance(b *testing.B) { runExperiment(b, "fig13") }
func BenchmarkAblationSVB(b *testing.B)      { runExperiment(b, "ablation-svb") }
func BenchmarkAblationEOS(b *testing.B)      { runExperiment(b, "ablation-eos") }
func BenchmarkAblationDrops(b *testing.B)    { runExperiment(b, "ablation-drops") }

// BenchmarkSimulatorThroughput measures raw simulation speed (events per
// second) on the baseline configuration. It calls the simulator
// directly, bypassing the experiment engine's memoization, so every
// iteration does full work.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := tifs.WorkloadByName("OLTP-DB2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		r := tifs.Simulate(spec, tifs.ScaleSmall, tifs.SimConfig{
			EventsPerCore: 50_000,
			Mechanism:     tifs.NextLineOnly(),
		})
		events += r.TotalEvents
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimulatorThroughputPooled is BenchmarkSimulatorThroughput
// through a reused SimRunner — the configuration the experiment engine
// actually runs — once per mechanism a single simulation point runs: the
// next-line baseline, FDIP (the one prefetcher that reads the
// fetch-target queue), the discontinuity predictor, TIFS and perfect
// streaming. Steady-state iterations perform zero heap allocations (the
// -benchmem columns are the regression signal for that).
func BenchmarkSimulatorThroughputPooled(b *testing.B) {
	spec, err := tifs.WorkloadByName("OLTP-DB2")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"next-line", "fdip", "discontinuity", "tifs-virtualized", "perfect"} {
		mech, err := tifs.MechanismByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			r := tifs.NewSimRunner()
			cfg := tifs.SimConfig{EventsPerCore: 50_000, Mechanism: mech}
			r.Run(spec, tifs.ScaleSmall, cfg) // warm the pools
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				events += r.Run(spec, tifs.ScaleSmall, cfg).TotalEvents
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkMissExtraction measures the trace hot path: filtering a raw
// fetch-event stream through the L1/next-line miss definition. The
// executor is infinite, so each iteration filters a fresh 50k-event
// window at full cost.
func BenchmarkMissExtraction(b *testing.B) {
	spec, err := tifs.WorkloadByName("OLTP-DB2")
	if err != nil {
		b.Fatal(err)
	}
	const events = 50_000
	w := tifs.BuildWorkload(spec, tifs.ScaleSmall, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var misses int
	for i := 0; i < b.N; i++ {
		misses += len(tifs.ExtractMisses(w, 0, events))
	}
	if misses == 0 {
		b.Fatal("extracted no misses")
	}
	b.ReportMetric(float64(uint64(b.N)*events)/b.Elapsed().Seconds(), "events/s")
}
