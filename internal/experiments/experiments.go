// Package experiments reproduces every table and figure of the paper's
// evaluation: the Fig. 1 opportunity sweep, the Fig. 3/5/6 SEQUITUR
// studies, the Fig. 10 lookahead limits, the Fig. 11 IML capacity sweep,
// the Fig. 12 coverage/discard/traffic accounting, and the Fig. 13
// performance comparison, plus the Table I/II parameter listings.
//
// Each runner returns both a rendered plain-text table (the same rows or
// series the paper plots) and structured results for programmatic use.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tifs/internal/analysis"
	"tifs/internal/engine"
	"tifs/internal/isa"
	"tifs/internal/sim"
	"tifs/internal/stats"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// Options control experiment scope.
type Options struct {
	// Context, when non-nil, bounds the run: cancellation stops
	// scheduling new simulations and unblocks waiters promptly.
	// Tables rendered after cancellation are partial and must be
	// treated as invalid output (CLI runners mark them interrupted).
	Context context.Context
	// Scale selects workload size; experiments use its default event
	// budgets unless Events overrides them.
	Scale workload.Scale
	// Events overrides the per-core event budget (0 = scale default;
	// offline analyses use the scale's AnalysisEvents).
	Events uint64
	// Cores is the CMP width (default 4).
	Cores int
	// Workloads restricts the suite (empty = all six).
	Workloads []string
	// Engine is the simulation scheduler the run submits to; nil selects
	// the process-wide engine.Default(). The engine fixes the run's
	// width (how many simulations, and how many of an analysis figure's
	// workloads, run at once) and its persistent store backend, if any.
	// Output is byte-identical whatever the engine: results are
	// assembled in submission order, every simulation is deterministic
	// in its configuration, and a store hit returns the bytes a
	// simulation would. Supplying one engine across several experiment
	// runs shares its memoized results between them.
	Engine *engine.Engine
}

func (o Options) withDefaults() Options {
	if o.Cores == 0 {
		o.Cores = 4
	}
	return o
}

// ctx returns the run's context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// engine returns the scheduler for this run.
func (o Options) engine() *engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return engine.Default()
}

// job names one simulation of this experiment's grid.
func (o Options) job(spec workload.Spec, m sim.Mechanism) engine.Job {
	return engine.Job{
		Spec:  spec,
		Scale: o.Scale,
		Config: sim.Config{
			Cores:         o.Cores,
			EventsPerCore: o.Events,
			Mechanism:     m,
		},
	}
}

func (o Options) suite() []workload.Spec {
	if len(o.Workloads) == 0 {
		return workload.Suite()
	}
	var out []workload.Spec
	for _, name := range o.Workloads {
		if s, ok := workload.ByName(name); ok {
			out = append(out, s)
		}
	}
	return out
}

// analysisEvents returns the event budget for offline (functional)
// studies.
func (o Options) analysisEvents() uint64 {
	if o.Events != 0 {
		return o.Events
	}
	return o.Scale.AnalysisEvents()
}

// traceJob names the per-core miss-trace extraction for one workload
// under these options.
func (o Options) traceJob(spec workload.Spec) engine.TraceJob {
	return engine.TraceJob{Spec: spec, Scale: o.Scale, Cores: o.Cores, Events: o.analysisEvents()}
}

// perWorkload runs task once for each workload of the suite and returns
// the rows in suite order. At most e.Parallelism() tasks run at once,
// each goroutine taking the next workload in suite order, so at width 1
// the workloads run one at a time in suite order. A task holds none of
// the engine's worker slots: Grammars and ExtractTraces take slots
// themselves, so a task waiting in them on a slot of its own would
// deadlock at width 1. Its kernels run outside the engine's pool.
func perWorkload[R any](e *engine.Engine, suite []workload.Spec, task func(workload.Spec) R) []R {
	rows := make([]R, len(suite))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.Parallelism(), len(suite)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(suite) {
					return
				}
				rows[i] = task(suite[i])
			}
		}()
	}
	wg.Wait()
	return rows
}

// analysisTraces enumerates the trace extractions the offline analysis
// experiments (fig3/5/6/10/11) perform: one per suite workload.
func analysisTraces(o Options) []engine.TraceJob {
	var out []engine.TraceJob
	for _, spec := range o.suite() {
		out = append(out, o.traceJob(spec))
	}
	return out
}

// fig1Jobs enumerates the Fig. 1 coverage sweep's simulation grid in the
// exact order Fig1 consumes it: for each workload, the next-line
// baseline followed by each nonzero coverage point.
func fig1Jobs(o Options) []engine.Job {
	var jobs []engine.Job
	for _, spec := range o.suite() {
		for _, cov := range fig1Coverages {
			m := sim.Baseline()
			if cov > 0 {
				m = sim.Probabilistic(cov)
			}
			jobs = append(jobs, o.job(spec, m))
		}
	}
	return jobs
}

var fig1Coverages = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}

// Table1 prints the workload suite parameters (the paper's Table I).
func Table1(o Options) string {
	o = o.withDefaults()
	t := stats.NewTable("Table I. Commercial server workload parameters (synthetic models)",
		"Workload", "Class", "Code(KB)", "TxnTypes", "Thr/Core", "Configuration")
	for _, s := range o.suite() {
		t.AddRowf(s.Name, string(s.Class),
			fmt.Sprintf("%d", s.AppKB+s.LibKB+s.OSKB),
			s.TxnTypes, s.ThreadsPerCore, s.Description)
	}
	return t.String()
}

// Table2 prints the simulated system parameters (the paper's Table II).
func Table2() string {
	t := stats.NewTable("Table II. System parameters", "Component", "Configuration")
	rows := [][2]string{
		{"Cores", "4x 4-wide OoO (modeled), 4 GHz, UltraSPARC-III-like 4-byte instructions"},
		{"I-Fetch", "64KB 2-way L1-I, 64-byte blocks, next-line prefetcher (depth 2)"},
		{"Branch pred.", "hybrid 16K gShare + 16K bimodal, 12-cycle mispredict refill"},
		{"L2", "8MB 16-way shared, 16 banks, 20-cycle hit, new access per bank per 4 cycles"},
		{"Memory", "180-cycle latency (45ns), ~28.4 GB/s (9 cycles per 64B block)"},
		{"TIFS", "per-core SVB 2KB (32 blocks), 4 streams, lookahead 4; IML 8K entries/core"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1])
	}
	return t.String()
}

// Fig1Point is one coverage/speedup sample of the opportunity study.
type Fig1Point struct {
	Workload string
	Coverage float64
	Speedup  float64
}

// Fig1Result is the full sweep plus per-workload linear fits.
type Fig1Result struct {
	Points []Fig1Point
	Fits   map[string]stats.LinearFit
}

// Fig1 runs the probabilistic-prefetcher coverage sweep (Section 2). The
// whole (workload x coverage) grid fans out through the engine at once;
// the zero-coverage point reuses the memoized next-line baseline.
func Fig1(o Options) (Fig1Result, string) {
	o = o.withDefaults()
	res := Fig1Result{Fits: map[string]stats.LinearFit{}}
	coverages := fig1Coverages

	suite := o.suite()
	results := o.engine().RunAll(o.ctx(), fig1Jobs(o))

	headers := []string{"Workload"}
	for _, c := range coverages {
		headers = append(headers, fmt.Sprintf("%.0f%%", 100*c))
	}
	headers = append(headers, "slope/100%")
	t := stats.NewTable("Fig. 1. Speedup over next-line prefetching vs. prefetch coverage", headers...)
	for wi, spec := range suite {
		base := results[wi*len(coverages)]
		var xs, ys []float64
		row := []string{spec.Name}
		for ci, cov := range coverages {
			r := results[wi*len(coverages)+ci]
			sp := r.SpeedupOver(base)
			res.Points = append(res.Points, Fig1Point{Workload: spec.Name, Coverage: cov, Speedup: sp})
			xs = append(xs, cov)
			ys = append(ys, sp)
			row = append(row, fmt.Sprintf("%.3f", sp))
		}
		fit := stats.FitLinear(xs, ys)
		res.Fits[spec.Name] = fit
		row = append(row, fmt.Sprintf("%+.3f", fit.Slope))
		t.AddRow(row...)
	}
	return res, t.String()
}

// Fig3Row is one workload's miss categorization.
type Fig3Row struct {
	Workload string
	Cat      *analysis.Categorization
}

// Fig3 runs the SEQUITUR opportunity categorization (Section 4.2). The
// same categorization's stream lengths feed Fig5.
func Fig3(o Options) ([]Fig3Row, string) {
	o = o.withDefaults()
	e := o.engine()
	rows := perWorkload(e, o.suite(), func(spec workload.Spec) Fig3Row {
		// The per-core grammars come from the engine's memoized (and
		// store-persisted) grammar tier; a warm process categorizes
		// without re-running SEQUITUR.
		snaps := e.Grammars(o.ctx(), o.traceJob(spec), false)
		// Categorize per core and merge counts (the paper logs per-core
		// miss sequences).
		merged := stats.NewCategories(analysis.CatOpportunity, analysis.CatHead,
			analysis.CatNew, analysis.CatNonRepetitive)
		lengths := stats.NewHistogram()
		var rules int
		for _, snap := range snaps {
			c := analysis.CategorizeSnapshot(snap)
			for _, name := range merged.Names() {
				merged.Add(name, c.Counts.Count(name))
			}
			for _, v := range c.StreamLengths.Values() {
				lengths.AddN(v, c.StreamLengths.Count(v))
			}
			rules += c.Rules
		}
		cat := &analysis.Categorization{Counts: merged, StreamLengths: lengths, Rules: rules}
		return Fig3Row{Workload: spec.Name, Cat: cat}
	})
	t := stats.NewTable("Fig. 3. Miss categorization by SEQUITUR analysis (% of L1-I misses)",
		"Workload", "Opportunity", "Head", "New", "Non-repetitive", "Repetitive")
	for _, r := range rows {
		t.AddRow(r.Workload,
			stats.Pct(r.Cat.Counts.Fraction(analysis.CatOpportunity)),
			stats.Pct(r.Cat.Counts.Fraction(analysis.CatHead)),
			stats.Pct(r.Cat.Counts.Fraction(analysis.CatNew)),
			stats.Pct(r.Cat.Counts.Fraction(analysis.CatNonRepetitive)),
			stats.Pct(r.Cat.RepetitiveFrac()))
	}
	return rows, t.String()
}

// Fig5Row is one workload's recurring-stream-length distribution.
type Fig5Row struct {
	Workload string
	Lengths  *stats.Histogram
}

// Fig5 computes the stream-length CDF over traces with sequential misses
// removed (modeling a perfect next-line prefetcher, Section 4.3).
func Fig5(o Options) ([]Fig5Row, string) {
	o = o.withDefaults()
	e := o.engine()
	rows := perWorkload(e, o.suite(), func(spec workload.Spec) Fig5Row {
		// The dropSequential grammar variant is its own persisted entry.
		snaps := e.Grammars(o.ctx(), o.traceJob(spec), true)
		lengths := stats.NewHistogram()
		for _, snap := range snaps {
			c := analysis.CategorizeSnapshot(snap)
			for _, v := range c.StreamLengths.Values() {
				lengths.AddN(v, c.StreamLengths.Count(v))
			}
		}
		return Fig5Row{Workload: spec.Name, Lengths: lengths}
	})
	marks := []float64{0.25, 0.5, 0.75, 0.9}
	t := stats.NewTable("Fig. 5. Recurring stream lengths, sequential misses removed (length at %opportunity)",
		"Workload", "p25", "median", "p75", "p90", "max")
	for _, r := range rows {
		row := []string{r.Workload}
		wcdf := r.Lengths.WeightedCDF()
		for _, m := range marks {
			x := 0
			for _, pt := range wcdf {
				if pt.P >= m {
					x = pt.X
					break
				}
			}
			row = append(row, fmt.Sprintf("%d", x))
		}
		maxLen := 0
		if vs := r.Lengths.Values(); len(vs) > 0 {
			maxLen = vs[len(vs)-1]
		}
		row = append(row, fmt.Sprintf("%d", maxLen))
		t.AddRow(row...)
	}
	return rows, t.String()
}

// Fig6Row is one workload's heuristic comparison.
type Fig6Row struct {
	Workload    string
	Coverages   map[string]float64
	Opportunity float64
}

// Fig6 compares the stream lookup heuristics (Section 4.4).
func Fig6(o Options) ([]Fig6Row, string) {
	o = o.withDefaults()
	e := o.engine()
	rows := perWorkload(e, o.suite(), func(spec workload.Spec) Fig6Row {
		// Heuristic replay needs the raw miss sequences; the opportunity
		// column reuses the same full-trace grammars Fig3 categorizes
		// (shared through the engine's grammar memo).
		perCore := e.ExtractTraces(o.ctx(), o.traceJob(spec))
		snaps := e.Grammars(o.ctx(), o.traceJob(spec), false)
		covs := map[string]float64{}
		var opp float64
		var totalMisses uint64
		covered := map[string]uint64{}
		var oppCount uint64
		for i, recs := range perCore {
			seq := trace.Blocks(recs)
			for _, r := range analysis.EvaluateHeuristics(seq) {
				covered[r.Policy] += r.Covered
			}
			if i < len(snaps) {
				c := analysis.CategorizeSnapshot(snaps[i])
				oppCount += c.Counts.Count(analysis.CatOpportunity)
			}
			totalMisses += uint64(len(seq))
		}
		if totalMisses > 0 {
			for _, p := range analysis.Policies() {
				covs[p] = float64(covered[p]) / float64(totalMisses)
			}
			opp = float64(oppCount) / float64(totalMisses)
		}
		return Fig6Row{Workload: spec.Name, Coverages: covs, Opportunity: opp}
	})
	t := stats.NewTable("Fig. 6. Stream lookup heuristics (% of misses eliminated)",
		"Workload", "First", "Digram", "Recent", "Longest", "Opportunity")
	for _, r := range rows {
		t.AddRow(r.Workload,
			stats.Pct(r.Coverages[analysis.PolicyFirst]),
			stats.Pct(r.Coverages[analysis.PolicyDigram]),
			stats.Pct(r.Coverages[analysis.PolicyRecent]),
			stats.Pct(r.Coverages[analysis.PolicyLongest]),
			stats.Pct(r.Opportunity))
	}
	return rows, t.String()
}

// Fig10Row is one workload's lookahead CDF.
type Fig10Row struct {
	Workload string
	CDF      []stats.CDFPoint
}

// Fig10 measures how many non-inner-loop branch predictions a
// fetch-directed prefetcher needs for a four-miss lookahead (Section 6.2).
func Fig10(o Options) ([]Fig10Row, string) {
	o = o.withDefaults()
	e := o.engine()
	rows := perWorkload(e, o.suite(), func(spec workload.Spec) Fig10Row {
		h := stats.NewHistogram()
		for _, recs := range e.ExtractTraces(o.ctx(), o.traceJob(spec)) {
			ph := analysis.BranchLookahead(recs, analysis.DefaultLookaheadMisses)
			for _, v := range ph.Values() {
				h.AddN(v, ph.Count(v))
			}
		}
		return Fig10Row{Workload: spec.Name, CDF: analysis.LookaheadCDF(h)}
	})
	headers := []string{"Workload"}
	for _, b := range analysis.LookaheadBuckets() {
		headers = append(headers, fmt.Sprintf("<=%d", b))
	}
	t := stats.NewTable("Fig. 10. Non-inner-loop branch predictions required for 4-miss lookahead (CDF)", headers...)
	for _, r := range rows {
		row := []string{r.Workload}
		for _, pt := range r.CDF {
			row = append(row, stats.Pct(pt.P))
		}
		t.AddRow(row...)
	}
	return rows, t.String()
}

// Fig11Row is one workload's IML-capacity sweep.
type Fig11Row struct {
	Workload string
	Points   []analysis.IMLCapacityPoint
}

// Fig11 sweeps IML capacity against predictor coverage (Section 6.3).
func Fig11(o Options) ([]Fig11Row, string) {
	o = o.withDefaults()
	e := o.engine()
	entries := analysis.DefaultIMLSweepEntries()
	rows := perWorkload(e, o.suite(), func(spec workload.Spec) Fig11Row {
		perCore := e.ExtractTraces(o.ctx(), o.traceJob(spec))
		blocks := make([][]isa.Block, len(perCore))
		for i, recs := range perCore {
			blocks[i] = trace.Blocks(recs)
		}
		return Fig11Row{Workload: spec.Name, Points: analysis.IMLCapacitySweep(blocks, entries)}
	})
	headers := []string{"Workload"}
	for _, n := range entries {
		headers = append(headers, fmt.Sprintf("%d(%0.0fKB)", n, analysis.IMLStorageKB(n)))
	}
	t := stats.NewTable("Fig. 11. Predictor coverage vs. per-core IML capacity (perfect index)", headers...)
	for _, r := range rows {
		row := []string{r.Workload}
		for _, p := range r.Points {
			row = append(row, stats.Pct(p.Coverage))
		}
		t.AddRow(row...)
	}
	return rows, t.String()
}
