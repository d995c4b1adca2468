package experiments

import (
	"fmt"

	"tifs/internal/core"
	"tifs/internal/engine"
	"tifs/internal/sim"
	"tifs/internal/stats"
	"tifs/internal/uncore"
)

// Fig12Row is one workload's coverage/discard/traffic accounting.
type Fig12Row struct {
	Workload     string
	Coverage     float64
	Discards     float64
	TrafficIML   float64 // IML read+write traffic as a fraction of base
	TrafficTotal float64 // total added traffic as a fraction of base
}

// fig12Jobs enumerates Fig. 12's grid: one virtualized-TIFS simulation
// per suite workload, in suite order.
func fig12Jobs(o Options) []engine.Job {
	suite := o.suite()
	jobs := make([]engine.Job, len(suite))
	for i, spec := range suite {
		jobs[i] = o.job(spec, sim.TIFS(core.VirtualizedConfig()))
	}
	return jobs
}

// Fig12 measures TIFS (dedicated sizing, virtualized storage) coverage,
// discards, and L2 traffic overhead (Section 6.4).
func Fig12(o Options) ([]Fig12Row, string) {
	o = o.withDefaults()
	var rows []Fig12Row
	t := stats.NewTable("Fig. 12. TIFS coverage, discards, and L2 traffic overhead (virtualized IML)",
		"Workload", "Coverage", "Discards", "IML traffic", "Total overhead")
	suite := o.suite()
	results := o.engine().RunAll(o.ctx(), fig12Jobs(o))
	for i, spec := range suite {
		r := results[i]
		var useful uint64
		for _, s := range r.PerCore {
			useful += s.PrefetchHits
		}
		base := r.Traffic.Base()
		imlFrac := 0.0
		if base > 0 {
			imlFrac = float64(r.Traffic.Count(uncore.TrafficIMLRead)+r.Traffic.Count(uncore.TrafficIMLWrite)) / float64(base)
		}
		row := Fig12Row{
			Workload:     spec.Name,
			Coverage:     r.Coverage(),
			Discards:     r.DiscardFrac(),
			TrafficIML:   imlFrac,
			TrafficTotal: r.Traffic.OverheadFrac(useful),
		}
		rows = append(rows, row)
		t.AddRow(spec.Name, stats.Pct(row.Coverage), stats.Pct(row.Discards),
			stats.Pct(row.TrafficIML), stats.Pct(row.TrafficTotal))
	}
	return rows, t.String()
}

// Fig13Mechanisms returns the comparison set of the paper's Fig. 13.
func Fig13Mechanisms() []sim.Mechanism {
	return []sim.Mechanism{
		sim.FDIP(),
		sim.TIFS(core.UnboundedConfig()),
		sim.TIFS(core.DedicatedConfig()),
		sim.TIFS(core.VirtualizedConfig()),
		sim.Perfect(),
	}
}

// Fig13Row is one workload's speedups over the next-line baseline.
type Fig13Row struct {
	Workload string
	// Speedups maps mechanism name to speedup; Results holds the raw
	// simulation outputs (baseline under "next-line").
	Speedups map[string]float64
	Results  map[string]sim.Result
}

// comparisonJobs enumerates a baseline-anchored comparison grid: for
// each suite workload, the next-line baseline followed by every
// mechanism under test (stride 1+len(mechs)). Fig13 and the speedup
// ablations all consume this exact order.
func comparisonJobs(o Options, mechs []sim.Mechanism) []engine.Job {
	suite := o.suite()
	jobs := make([]engine.Job, 0, len(suite)*(1+len(mechs)))
	for _, spec := range suite {
		jobs = append(jobs, o.job(spec, sim.Baseline()))
		for _, m := range mechs {
			jobs = append(jobs, o.job(spec, m))
		}
	}
	return jobs
}

// Fig13 runs the full performance comparison (Section 6.5).
func Fig13(o Options) ([]Fig13Row, string) {
	o = o.withDefaults()
	mechs := Fig13Mechanisms()
	headers := []string{"Workload"}
	for _, m := range mechs {
		headers = append(headers, m.Name())
	}
	t := stats.NewTable("Fig. 13. Speedup over next-line prefetching", headers...)
	var rows []Fig13Row
	perMechanism := make(map[string][]float64)

	// Fan the full (workload x mechanism) grid, baseline included, out
	// through the engine; the baseline is shared with any other experiment
	// that needs it.
	suite := o.suite()
	stride := 1 + len(mechs)
	results := o.engine().RunAll(o.ctx(), comparisonJobs(o, mechs))

	for wi, spec := range suite {
		base := results[wi*stride]
		row := Fig13Row{
			Workload: spec.Name,
			Speedups: map[string]float64{},
			Results:  map[string]sim.Result{"next-line": base},
		}
		cells := []string{spec.Name}
		for mi, m := range mechs {
			r := results[wi*stride+1+mi]
			sp := r.SpeedupOver(base)
			row.Speedups[m.Name()] = sp
			row.Results[m.Name()] = r
			perMechanism[m.Name()] = append(perMechanism[m.Name()], sp)
			cells = append(cells, fmt.Sprintf("%.3f", sp))
		}
		rows = append(rows, row)
		t.AddRow(cells...)
	}
	// Geometric-mean summary row.
	cells := []string{"geomean"}
	for _, m := range mechs {
		cells = append(cells, fmt.Sprintf("%.3f", stats.GeoMean(perMechanism[m.Name()])))
	}
	t.AddRow(cells...)
	return rows, t.String()
}

// svbLookaheads are the SVB ablation's sweep points.
var svbLookaheads = []int{1, 2, 4, 8}

// svbMechs enumerates the SVB ablation's mechanisms.
func svbMechs() []sim.Mechanism {
	var mechs []sim.Mechanism
	for _, la := range svbLookaheads {
		cfg := core.DedicatedConfig()
		cfg.Lookahead = la
		mechs = append(mechs, sim.TIFS(cfg))
	}
	return mechs
}

// AblationSVB sweeps the SVB rate-matching lookahead (a design knob the
// paper fixes at 4, Section 5.2.1).
func AblationSVB(o Options) string {
	o = o.withDefaults()
	mechs := svbMechs()
	// Distinct names for the table.
	headers := []string{"Workload"}
	for _, la := range svbLookaheads {
		headers = append(headers, fmt.Sprintf("lookahead=%d", la))
	}
	t := stats.NewTable("Ablation: SVB rate-matching lookahead (speedup over next-line)", headers...)
	suite := o.suite()
	stride := 1 + len(mechs)
	results := o.engine().RunAll(o.ctx(), comparisonJobs(o, mechs))
	for wi, spec := range suite {
		base := results[wi*stride]
		cells := []string{spec.Name}
		for mi := range mechs {
			cells = append(cells, fmt.Sprintf("%.3f", results[wi*stride+1+mi].SpeedupOver(base)))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// eosMechs enumerates the end-of-stream ablation's pair: detection on
// (the paper's dedicated configuration) and off.
func eosMechs() []sim.Mechanism {
	off := core.DedicatedConfig()
	off.DisableEndOfStream = true
	return []sim.Mechanism{sim.TIFS(core.DedicatedConfig()), sim.TIFS(off)}
}

// AblationEndOfStream compares TIFS with and without end-of-stream
// detection (Section 5.1.3), reporting speedup and discard fraction.
func AblationEndOfStream(o Options) string {
	o = o.withDefaults()
	t := stats.NewTable("Ablation: end-of-stream detection (speedup | discards)",
		"Workload", "eos-on", "eos-off", "discards-on", "discards-off")
	suite := o.suite()
	results := o.engine().RunAll(o.ctx(), comparisonJobs(o, eosMechs()))
	for wi, spec := range suite {
		base, rOn, rOff := results[3*wi], results[3*wi+1], results[3*wi+2]
		t.AddRow(spec.Name,
			fmt.Sprintf("%.3f", rOn.SpeedupOver(base)),
			fmt.Sprintf("%.3f", rOff.SpeedupOver(base)),
			stats.Pct(rOn.DiscardFrac()), stats.Pct(rOff.DiscardFrac()))
	}
	return t.String()
}

// dropProbs are the index-drop ablation's injection rates.
var dropProbs = []float64{0, 0.05, 0.2, 0.5}

// dropsJobs enumerates the index-drop ablation's grid in consumption
// order: each workload crossed with every drop probability.
func dropsJobs(o Options) []engine.Job {
	var jobs []engine.Job
	for _, spec := range o.suite() {
		for _, p := range dropProbs {
			cfg := core.VirtualizedConfig()
			cfg.IndexDropProb = p
			jobs = append(jobs, o.job(spec, sim.TIFS(cfg)))
		}
	}
	return jobs
}

// AblationIndexDrops injects IML-pointer-update drops (tag-pipe
// back-pressure, Section 5.2.2) and reports coverage degradation.
func AblationIndexDrops(o Options) string {
	o = o.withDefaults()
	probs := dropProbs
	headers := []string{"Workload"}
	for _, p := range probs {
		headers = append(headers, fmt.Sprintf("drop=%.0f%%", 100*p))
	}
	t := stats.NewTable("Ablation: dropped index updates (TIFS coverage)", headers...)
	suite := o.suite()
	results := o.engine().RunAll(o.ctx(), dropsJobs(o))
	for wi, spec := range suite {
		cells := []string{spec.Name}
		for pi := range probs {
			cells = append(cells, stats.Pct(results[wi*len(probs)+pi].Coverage()))
		}
		t.AddRow(cells...)
	}
	return t.String()
}
