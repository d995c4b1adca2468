package experiments

import (
	"fmt"
	"strings"

	"tifs/internal/engine"
)

// Runner executes one named experiment and returns its rendered output.
type Runner struct {
	// ID is the experiment identifier ("fig13", "table1", ...).
	ID string
	// Description says what the experiment reproduces.
	Description string
	// Run executes it.
	Run func(Options) string
	// Grid enumerates, without running anything, the simulations and
	// trace extractions Run will request under the same options. Sharded
	// sweeps partition this enumeration across machines; nil means the
	// experiment simulates nothing (static tables).
	// TestGridMatchesExecution holds every Grid to exactly what Run does.
	Grid func(Options) ([]engine.Job, []engine.TraceJob)
}

// simGrid adapts a jobs-only enumerator to the Grid signature.
func simGrid(jobs func(Options) []engine.Job) func(Options) ([]engine.Job, []engine.TraceJob) {
	return func(o Options) ([]engine.Job, []engine.TraceJob) {
		return jobs(o.withDefaults()), nil
	}
}

// traceGrid is the Grid of the offline analysis experiments: trace
// extractions only.
func traceGrid(o Options) ([]engine.Job, []engine.TraceJob) {
	return nil, analysisTraces(o.withDefaults())
}

// Registry lists every reproducible table and figure plus the ablations,
// in paper order.
func Registry() []Runner {
	return []Runner{
		{ID: "table1", Description: "Workload suite parameters (Table I)",
			Run: func(o Options) string { return Table1(o) }},
		{ID: "table2", Description: "System parameters (Table II)",
			Run: func(Options) string { return Table2() }},
		{ID: "fig1", Description: "Opportunity: speedup vs. prefetch coverage (Fig. 1)",
			Run:  func(o Options) string { _, s := Fig1(o); return s },
			Grid: simGrid(fig1Jobs)},
		{ID: "fig3", Description: "SEQUITUR miss categorization (Fig. 3)",
			Run:  func(o Options) string { _, s := Fig3(o); return s },
			Grid: traceGrid},
		{ID: "fig5", Description: "Recurring stream lengths (Fig. 5)",
			Run:  func(o Options) string { _, s := Fig5(o); return s },
			Grid: traceGrid},
		{ID: "fig6", Description: "Stream lookup heuristics (Fig. 6)",
			Run:  func(o Options) string { _, s := Fig6(o); return s },
			Grid: traceGrid},
		{ID: "fig10", Description: "FDIP lookahead limits (Fig. 10)",
			Run:  func(o Options) string { _, s := Fig10(o); return s },
			Grid: traceGrid},
		{ID: "fig11", Description: "IML capacity requirements (Fig. 11)",
			Run:  func(o Options) string { _, s := Fig11(o); return s },
			Grid: traceGrid},
		{ID: "fig12", Description: "Coverage, discards, traffic overhead (Fig. 12)",
			Run:  func(o Options) string { _, s := Fig12(o); return s },
			Grid: simGrid(fig12Jobs)},
		{ID: "fig13", Description: "Performance comparison (Fig. 13)",
			Run:  func(o Options) string { _, s := Fig13(o); return s },
			Grid: simGrid(func(o Options) []engine.Job { return comparisonJobs(o, Fig13Mechanisms()) })},
		{ID: "ablation-svb", Description: "Ablation: SVB lookahead depth",
			Run:  AblationSVB,
			Grid: simGrid(func(o Options) []engine.Job { return comparisonJobs(o, svbMechs()) })},
		{ID: "ablation-eos", Description: "Ablation: end-of-stream detection",
			Run:  AblationEndOfStream,
			Grid: simGrid(func(o Options) []engine.Job { return comparisonJobs(o, eosMechs()) })},
		{ID: "ablation-drops", Description: "Ablation: dropped index updates",
			Run:  AblationIndexDrops,
			Grid: simGrid(dropsJobs)},
	}
}

// Grid enumerates the complete, key-deduplicated work list — simulation
// jobs and miss-trace extractions — that the named experiments (all of
// them when ids is empty) perform under o. The enumeration is
// deterministic in (ids, o): every shard worker of a sweep derives the
// identical list, which is what makes content-addressed partitioning
// sound across machines.
func Grid(ids []string, o Options) ([]engine.Job, []engine.TraceJob, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	var jobs []engine.Job
	var traces []engine.TraceJob
	seenJob := map[string]bool{}
	seenTrace := map[string]bool{}
	for _, id := range ids {
		r, ok := ByID(id)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
		}
		if r.Grid == nil {
			continue
		}
		js, ts := r.Grid(o)
		for _, j := range js {
			if key := j.Key(); !seenJob[key] {
				seenJob[key] = true
				jobs = append(jobs, j)
			}
		}
		for _, t := range ts {
			if key := t.Key(); !seenTrace[key] {
				seenTrace[key] = true
				traces = append(traces, t)
			}
		}
	}
	return jobs, traces, nil
}

// IDs returns the registered experiment identifiers.
func IDs() []string {
	var out []string
	for _, r := range Registry() {
		out = append(out, r.ID)
	}
	return out
}

// ByID finds a runner.
func ByID(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// Progress observes a multi-experiment run: it is called with each
// experiment's ID before it runs (done=false) and again when its output
// is complete (done=true). The sweep service streams these as job
// events; nil disables observation.
type Progress func(id string, done bool)

// RunSelected executes the named experiments (the full registry, in
// paper order, when ids is empty) sharing one engine, so work common to
// several experiments (the next-line baselines, the repeated TIFS
// configurations, the per-workload miss traces) runs once. A single id
// renders that experiment's bare output, as tifsbench -experiment <id>
// prints it; several (or none) render the "== id: description"
// sectioned concatenation. An unknown id fails before anything runs.
func RunSelected(ids []string, o Options, progress Progress) (string, error) {
	runners := make([]Runner, 0, len(ids))
	if len(ids) == 0 {
		runners = Registry()
	} else {
		for _, id := range ids {
			r, ok := ByID(id)
			if !ok {
				return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
			}
			runners = append(runners, r)
		}
	}
	if o.Engine == nil {
		o.Engine = o.engine()
	}
	var b strings.Builder
	for _, r := range runners {
		if progress != nil {
			progress(r.ID, false)
		}
		out := r.Run(o)
		if len(runners) == 1 && len(ids) == 1 {
			b.WriteString(out)
		} else {
			fmt.Fprintf(&b, "== %s: %s\n\n", r.ID, r.Description)
			b.WriteString(out)
			b.WriteString("\n")
		}
		if progress != nil {
			progress(r.ID, true)
		}
	}
	return b.String(), nil
}
