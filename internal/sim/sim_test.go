package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tifs/internal/core"
	"tifs/internal/uncore"
	"tifs/internal/workload"
)

func run(t testing.TB, mech Mechanism) Result {
	t.Helper()
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	return Run(spec, workload.ScaleSmall, Config{
		EventsPerCore: 60_000,
		WarmupEvents:  20_000,
		Mechanism:     mech,
	})
}

func TestBaselineRuns(t *testing.T) {
	r := run(t, Baseline())
	if r.Cycles == 0 || r.TotalInstrs == 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if len(r.PerCore) != 4 {
		t.Errorf("cores = %d", len(r.PerCore))
	}
	for i, s := range r.PerCore {
		if s.Events != 60_000 {
			t.Errorf("core %d measured %d events, want 60000", i, s.Events)
		}
	}
	if r.Coverage() != 0 {
		t.Error("baseline should have no prefetch coverage")
	}
	if r.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
	if r.Mechanism != "next-line" {
		t.Errorf("mechanism = %q", r.Mechanism)
	}
}

func TestDeterministicRuns(t *testing.T) {
	r1 := run(t, TIFS(core.DedicatedConfig()))
	r2 := run(t, TIFS(core.DedicatedConfig()))
	if r1.Cycles != r2.Cycles || r1.TotalInstrs != r2.TotalInstrs {
		t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/instrs",
			r1.Cycles, r1.TotalInstrs, r2.Cycles, r2.TotalInstrs)
	}
}

func TestFig13Ordering(t *testing.T) {
	base := run(t, Baseline())
	fdip := run(t, FDIP())
	tifs := run(t, TIFS(core.DedicatedConfig()))
	perfect := run(t, Perfect())

	spFDIP := fdip.SpeedupOver(base)
	spTIFS := tifs.SpeedupOver(base)
	spPerfect := perfect.SpeedupOver(base)

	// The paper's headline ordering on OLTP: next-line < FDIP < TIFS <
	// perfect (Fig. 13).
	if spFDIP < 0.99 {
		t.Errorf("FDIP slowed the system: %.3f", spFDIP)
	}
	if spTIFS <= spFDIP-0.005 {
		t.Errorf("TIFS (%.3f) should beat FDIP (%.3f) on OLTP", spTIFS, spFDIP)
	}
	if spPerfect < spTIFS-0.005 {
		t.Errorf("perfect (%.3f) below TIFS (%.3f)", spPerfect, spTIFS)
	}
	if spTIFS < 1.005 {
		t.Errorf("TIFS speedup %.3f, expected measurable gain on OLTP", spTIFS)
	}
}

func TestTIFSStatsExposed(t *testing.T) {
	r := run(t, TIFS(core.VirtualizedConfig()))
	if r.TIFS == nil {
		t.Fatal("TIFS stats missing")
	}
	if r.TIFS.StreamsAllocated == 0 || r.TIFS.LoggedMisses == 0 {
		t.Errorf("TIFS stats empty: %+v", r.TIFS)
	}
	if r.Traffic.Count(uncore.TrafficIMLRead) == 0 {
		t.Error("virtualized run produced no IML read traffic")
	}
	if r.Prefetch.MetaWrites == 0 {
		t.Error("no metadata writes")
	}
}

func TestDedicatedHasNoIMLTraffic(t *testing.T) {
	r := run(t, TIFS(core.DedicatedConfig()))
	if r.Traffic.Count(uncore.TrafficIMLRead) != 0 || r.Traffic.Count(uncore.TrafficIMLWrite) != 0 {
		t.Error("dedicated IML issued L2 metadata traffic")
	}
}

func TestProbabilisticCoverageScales(t *testing.T) {
	low := run(t, Probabilistic(0.2))
	high := run(t, Probabilistic(0.9))
	if high.Coverage() <= low.Coverage() {
		t.Errorf("coverage not increasing: %.2f vs %.2f", low.Coverage(), high.Coverage())
	}
	if high.Cycles >= low.Cycles {
		t.Errorf("higher coverage should be faster: %d vs %d", high.Cycles, low.Cycles)
	}
}

func TestDiscontinuityRuns(t *testing.T) {
	base := run(t, Baseline())
	r := run(t, Discontinuity())
	if r.Coverage() == 0 {
		t.Error("discontinuity predictor covered nothing")
	}
	if sp := r.SpeedupOver(base); sp < 0.98 {
		t.Errorf("discontinuity predictor slowed the system: %.3f", sp)
	}
}

func TestMechanismNames(t *testing.T) {
	cases := map[string]Mechanism{
		"next-line":        Baseline(),
		"FDIP":             FDIP(),
		"TIFS-unbounded":   TIFS(core.UnboundedConfig()),
		"TIFS-dedicated":   TIFS(core.DedicatedConfig()),
		"TIFS-virtualized": TIFS(core.VirtualizedConfig()),
		"perfect":          Perfect(),
		"prob-40%":         Probabilistic(0.4),
		"discontinuity":    Discontinuity(),
	}
	for want, m := range cases {
		if got := m.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestMechanismByName: every listed CLI name and both aliases resolve,
// each listed name is its mechanism's output label lower-cased, so CLI
// names and labels cannot drift, and the kinds table has exactly one
// entry per Kind* constant.
func TestMechanismByName(t *testing.T) {
	for _, name := range MechanismNames() {
		m, err := MechanismByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if label := strings.ToLower(m.Name()); label != name {
			t.Errorf("%s resolves to a mechanism labelled %q", name, m.Name())
		}
	}
	for alias, name := range map[string]string{"baseline": "next-line", "tifs": "tifs-unbounded"} {
		got, err := MechanismByName(alias)
		want, _ := MechanismByName(name)
		if err != nil || got != want {
			t.Errorf("alias %s = %+v, %v; want %s's %+v", alias, got, err, name, want)
		}
	}
	if _, err := MechanismByName("no-such-mechanism"); err == nil {
		t.Error("an unknown name resolved")
	}
	all := []string{KindNone, KindFDIP, KindDiscontinuity, KindTIFS, KindPerfect, KindProb}
	for _, k := range all {
		if _, ok := kinds[k]; !ok {
			t.Errorf("kind %q has no table entry", k)
		}
	}
	if len(kinds) != len(all) {
		t.Errorf("kinds table has %d entries, want one per kind constant (%d)", len(kinds), len(all))
	}
}

// TestProbabilisticNamesMatchFormat pins the probabilistic names to the
// bytes fmt's %.0f prints (Fig. 1 shows them), across whole, halfway,
// out-of-range and signed coverages.
func TestProbabilisticNamesMatchFormat(t *testing.T) {
	covs := []float64{0, math.Copysign(0, -1), -0.001, 0.005, 0.015, 0.025, 0.125, 0.995, 1, 1.004, 1.006, 2.5,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := -20; i <= 2100; i++ {
		covs = append(covs, float64(i)/2000)
	}
	for _, cov := range covs {
		if got, want := Probabilistic(cov).Name(), fmt.Sprintf("prob-%.0f%%", 100*cov); got != want {
			t.Errorf("coverage %v: Name = %q, want %q", cov, got, want)
		}
	}
}

// testMechanisms is every mechanism kind, for reuse-correctness checks.
func testMechanisms() map[string]Mechanism {
	return map[string]Mechanism{
		"baseline":         Baseline(),
		"fdip":             FDIP(),
		"discontinuity":    Discontinuity(),
		"tifs-unbounded":   TIFS(core.UnboundedConfig()),
		"tifs-dedicated":   TIFS(core.DedicatedConfig()),
		"tifs-virtualized": TIFS(core.VirtualizedConfig()),
		"perfect":          Perfect(),
		"probabilistic":    Probabilistic(0.6),
	}
}

// TestRunnerMatchesFreshRun reruns every mechanism through one shared
// Runner — including mechanism switches and a repeat of the first
// mechanism after all the others have dirtied the pooled state — and
// requires bit-identical results to fresh, unpooled runs.
func TestRunnerMatchesFreshRun(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	web, ok := workload.ByName("Web-Zeus")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := func(m Mechanism) Config {
		return Config{EventsPerCore: 20_000, WarmupEvents: 5_000, Mechanism: m}
	}
	r := NewRunner()
	for name, m := range testMechanisms() {
		for _, s := range []workload.Spec{spec, web} {
			fresh := Run(s, workload.ScaleSmall, cfg(m))
			pooled := r.Run(s, workload.ScaleSmall, cfg(m))
			// Compare via deep copies: pooled results alias runner buffers.
			if !resultsEqual(fresh, pooled) {
				t.Errorf("%s/%s: pooled run diverged from fresh run\nfresh:  %+v\npooled: %+v",
					name, s.Name, fresh, pooled)
			}
		}
	}
	// Re-run the baseline after the pool has served every other shape.
	fresh := Run(spec, workload.ScaleSmall, cfg(Baseline()))
	pooled := r.Run(spec, workload.ScaleSmall, cfg(Baseline()))
	if !resultsEqual(fresh, pooled) {
		t.Error("baseline diverged after pooled mechanism churn")
	}
}

// resultsEqual compares two results by value, following the TIFS
// pointer.
func resultsEqual(a, b Result) bool {
	ta, tb := a.TIFS, b.TIFS
	a.TIFS, b.TIFS = nil, nil
	if !reflect.DeepEqual(a, b) {
		return false
	}
	if (ta == nil) != (tb == nil) {
		return false
	}
	return ta == nil || *ta == *tb
}

// TestRunnerDistinguishesModifiedSpecs: the workload cache must key on
// the whole spec, not just its name — a same-named spec with any field
// changed is a different workload.
func TestRunnerDistinguishesModifiedSpecs(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	mod := spec
	mod.ThreadsPerCore = 2
	mod.TrapMeanInstrs = 100_000
	cfg := Config{EventsPerCore: 10_000, WarmupEvents: 2_000, Mechanism: Baseline()}

	r := NewRunner()
	origCycles := r.Run(spec, workload.ScaleSmall, cfg).Cycles
	fresh := Run(mod, workload.ScaleSmall, cfg)
	pooled := r.Run(mod, workload.ScaleSmall, cfg)
	if !resultsEqual(fresh, pooled) {
		t.Errorf("pooled run of the modified spec diverged from a fresh run:\nfresh  %+v\npooled %+v", fresh, pooled)
	}
	if pooled.Cycles == origCycles {
		t.Error("modified spec produced the original spec's cycles; workload cache ignored the change")
	}
}

// TestRunnerSteadyStateZeroAlloc verifies the acceptance criterion of
// the pooled path: once warmed, a repeated simulation run performs zero
// heap allocations for every mechanism kind.
func TestRunnerSteadyStateZeroAlloc(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	for _, tc := range []struct {
		name string
		mech Mechanism
	}{
		{"baseline", Baseline()},
		{"fdip", FDIP()},
		{"discontinuity", Discontinuity()},
		{"tifs-dedicated", TIFS(core.DedicatedConfig())},
		{"tifs-virtualized", TIFS(core.VirtualizedConfig())},
		{"tifs-unbounded", TIFS(core.UnboundedConfig())},
		{"perfect", Perfect()},
		{"probabilistic", Probabilistic(0.6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRunner()
			cfg := Config{
				EventsPerCore: 12_000,
				WarmupEvents:  3_000,
				Mechanism:     tc.mech,
			}
			r.Run(spec, workload.ScaleSmall, cfg) // reach steady-state capacity
			allocs := testing.AllocsPerRun(2, func() {
				r.Run(spec, workload.ScaleSmall, cfg)
			})
			if allocs != 0 {
				t.Errorf("steady-state run allocated %.1f times, want 0", allocs)
			}
		})
	}
}

func TestUnknownMechanismPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mechanism should panic")
		}
	}()
	spec, _ := workload.ByName("Web-Zeus")
	Run(spec, workload.ScaleSmall, Config{
		EventsPerCore: 1000,
		Mechanism:     Mechanism{Kind: "bogus"},
	})
}
