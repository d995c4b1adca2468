// Package workload defines the six commercial server workload models of
// the paper's Table I — OLTP (DB2, Oracle), DSS (TPC-H Q2, Q17 on DB2),
// and Web (Apache, Zeus) — as parameterizations of the synthetic program
// model in internal/cfg.
//
// Each workload describes a code image (application, shared library, and
// OS regions with class-specific footprints and control-flow character)
// and a runtime shape (transaction mix, threading, trap rate). Build
// instantiates the image once and creates one executor per core, yielding
// the per-core instruction fetch streams consumed by the simulator and
// the offline analyses.
//
// The class distinctions that drive the paper's results are preserved:
// OLTP has the largest instruction working sets and the most transaction
// variety; Web is moderately sized with highly data-dependent request
// handling (Apache's re-convergent hammocks, Section 3.2); DSS runs one
// query plan whose operator loops dominate, leaving a small working set
// and little for instruction prefetching to do.
package workload

import (
	"fmt"
	"sync"

	"tifs/internal/cfg"
	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// Class is a workload family from Table I.
type Class string

// Workload classes.
const (
	OLTP Class = "OLTP"
	DSS  Class = "DSS"
	Web  Class = "Web"
)

// Scale selects how large an instance of the workload to build. Structure
// is identical across scales; only code footprint and transaction variety
// shrink, keeping tests fast while benches and experiments use realistic
// sizes.
type Scale int

// Scales.
const (
	// ScaleSmall is for unit tests: ~1/8 code footprint.
	ScaleSmall Scale = iota
	// ScaleMedium is the default for benchmarks and CLI runs: ~1/2
	// footprint.
	ScaleMedium
	// ScaleFull is the paper-sized configuration.
	ScaleFull
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale converts a name ("small", "medium", "full") to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return ScaleSmall, nil
	case "medium":
		return ScaleMedium, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("workload: unknown scale %q", s)
	}
}

// divisor returns the footprint divisor for the scale.
func (s Scale) divisor() int {
	switch s {
	case ScaleSmall:
		return 8
	case ScaleMedium:
		return 2
	default:
		return 1
	}
}

// DefaultEvents returns the recommended per-core trace length (in basic
// block events) for cycle-accounted simulations at this scale.
func (s Scale) DefaultEvents() uint64 {
	switch s {
	case ScaleSmall:
		return 200_000
	case ScaleMedium:
		return 1_000_000
	default:
		return 4_000_000
	}
}

// Spec is a workload definition: the Table I identity plus the knobs that
// shape its synthetic program and execution.
type Spec struct {
	// Name is the workload identifier ("OLTP-DB2", "Web-Apache", ...).
	Name string
	// Class is the workload family.
	Class Class
	// Description reproduces the Table I configuration text.
	Description string

	// AppKB, LibKB, OSKB are the code footprints (at ScaleFull) of the
	// application, shared-library, and OS regions, in kilobytes.
	AppKB, LibKB, OSKB int
	// TxnTypes is the number of distinct transaction/request/query driver
	// functions (TPC-C defines 5 transaction types; web serving has a
	// handful of hot request handlers).
	TxnTypes int
	// TxnSkew is the Zipf skew of the transaction mix.
	TxnSkew float64
	// HammockFrac, LoopFrac are structural densities passed to function
	// generation (DSS is loop-heavy; Web is hammock-heavy).
	HammockFrac, LoopFrac float64
	// LoopTripMax bounds inner-loop trip counts; DSS operator scans run
	// far longer than OLTP/Web transaction loops.
	LoopTripMax int
	// Unpredictable is the fraction of data-dependent (near 50/50)
	// hammock branches.
	Unpredictable float64
	// Fanout is the maximum indirect-call fanout at call sites.
	Fanout int
	// ThreadsPerCore is the number of software threads each core
	// multiplexes.
	ThreadsPerCore int
	// TrapMeanInstrs is the mean instruction distance between
	// asynchronous OS traps (timer/device interrupts); syscalls are
	// modeled as fixed call sites in application code instead.
	TrapMeanInstrs int
	// ContextSwitchProb is the chance a trap return switches threads.
	ContextSwitchProb float64
	// BackendCPI is the per-instruction execution-cycle adder modeling
	// data-side and dependency stalls in the timing model. It is
	// calibrated so the next-line baseline's front-end stall share
	// approximates the paper's reported 25-40% for OLTP and the small
	// share for DSS (see the README's "Substitutions" section).
	BackendCPI float64
}

// Suite returns the six workloads of Table I in presentation order.
func Suite() []Spec {
	return []Spec{
		{
			Name:        "OLTP-DB2",
			Class:       OLTP,
			Description: "IBM DB2 v8 ESE, 100 warehouses (10 GB), 64 clients, 2 GB buffer pool",
			AppKB:       1408, LibKB: 448, OSKB: 448,
			TxnTypes: 8, TxnSkew: 0.45,
			HammockFrac: 0.28, LoopFrac: 0.04, LoopTripMax: 8, Unpredictable: 0.30, Fanout: 4,
			ThreadsPerCore: 16, TrapMeanInstrs: 400_000, ContextSwitchProb: 0.60,
			BackendCPI: 0.42,
		},
		{
			Name:        "OLTP-Oracle",
			Class:       OLTP,
			Description: "Oracle 10g Enterprise Database Server, 100 warehouses (10 GB), 16 clients, 1.4 GB SGA",
			AppKB:       1664, LibKB: 512, OSKB: 448,
			TxnTypes: 6, TxnSkew: 0.40,
			HammockFrac: 0.26, LoopFrac: 0.04, LoopTripMax: 8, Unpredictable: 0.28, Fanout: 4,
			ThreadsPerCore: 8, TrapMeanInstrs: 500_000, ContextSwitchProb: 0.55,
			BackendCPI: 0.40,
		},
		{
			Name:        "DSS-Qry2",
			Class:       DSS,
			Description: "TPC-H Q2 on DB2 v8 ESE: join-dominated, 480 MB buffer pool",
			AppKB:       320, LibKB: 192, OSKB: 256,
			TxnTypes: 2, TxnSkew: 0.3,
			HammockFrac: 0.18, LoopFrac: 0.30, LoopTripMax: 48, Unpredictable: 0.15, Fanout: 2,
			ThreadsPerCore: 2, TrapMeanInstrs: 800_000, ContextSwitchProb: 0.25,
			BackendCPI: 0.30,
		},
		{
			Name:        "DSS-Qry17",
			Class:       DSS,
			Description: "TPC-H Q17 on DB2 v8 ESE: balanced scan-join, 480 MB buffer pool",
			AppKB:       224, LibKB: 160, OSKB: 256,
			TxnTypes: 2, TxnSkew: 0.3,
			HammockFrac: 0.15, LoopFrac: 0.36, LoopTripMax: 64, Unpredictable: 0.12, Fanout: 2,
			ThreadsPerCore: 2, TrapMeanInstrs: 800_000, ContextSwitchProb: 0.25,
			BackendCPI: 0.28,
		},
		{
			Name:        "Web-Apache",
			Class:       Web,
			Description: "Apache HTTP Server 2.0, 16K connections, FastCGI, worker threading model",
			AppKB:       1024, LibKB: 384, OSKB: 384,
			TxnTypes: 8, TxnSkew: 0.50,
			HammockFrac: 0.34, LoopFrac: 0.04, LoopTripMax: 8, Unpredictable: 0.40, Fanout: 6,
			ThreadsPerCore: 12, TrapMeanInstrs: 350_000, ContextSwitchProb: 0.60,
			BackendCPI: 0.36,
		},
		{
			Name:        "Web-Zeus",
			Class:       Web,
			Description: "Zeus Web Server v4.3, 16K connections, FastCGI",
			AppKB:       448, LibKB: 224, OSKB: 288,
			TxnTypes: 6, TxnSkew: 0.45,
			HammockFrac: 0.24, LoopFrac: 0.08, LoopTripMax: 14, Unpredictable: 0.22, Fanout: 3,
			ThreadsPerCore: 4, TrapMeanInstrs: 600_000, ContextSwitchProb: 0.40,
			BackendCPI: 0.34,
		},
	}
}

// ByName finds a workload spec by name.
func ByName(name string) (Spec, bool) {
	for _, s := range Suite() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names returns the suite's workload names in order.
func Names() []string {
	suite := Suite()
	out := make([]string, len(suite))
	for i, s := range suite {
		out[i] = s.Name
	}
	return out
}

// Generated is an instantiated workload: one shared program image and one
// executor per core.
type Generated struct {
	// Spec is the workload definition this instance was built from.
	Spec Spec
	// Scale records the build scale.
	Scale Scale
	// Program is the shared code image (all cores run the same server
	// binary, libraries, and OS).
	Program *cfg.Program
	// Execs hold one executor per core, independently seeded.
	Execs []*cfg.Executor
	// Roots are the transaction driver functions (one per type).
	Roots []cfg.FuncID
	// Handlers are the asynchronous trap handler functions.
	Handlers []cfg.FuncID
}

// Sources returns the per-core event sources.
func (g *Generated) Sources() []isa.EventSource {
	out := make([]isa.EventSource, len(g.Execs))
	for i, x := range g.Execs {
		out[i] = x
	}
	return out
}

// Reset rewinds every executor to its initial seeded state, so the
// instance replays exactly the event streams a fresh Build would
// produce. Pooled simulation runs reuse one instance per (spec, scale,
// cores) instead of rebuilding executors each run.
func (g *Generated) Reset() {
	for _, x := range g.Execs {
		x.Reset()
	}
}

// Cores returns the number of cores the instance was built for.
func (g *Generated) Cores() int { return len(g.Execs) }

// builtProgram is one cached program image. Programs are immutable after
// construction (executors only read them), so one image is shared by
// every simulation of the same (spec, scale) — including simulations
// running concurrently on different goroutines.
type builtProgram struct {
	prog     *cfg.Program
	roots    []cfg.FuncID
	handlers []cfg.FuncID
}

var (
	progMu    sync.Mutex
	progCache = map[string]*builtProgram{}
)

// program returns the cached code image for (spec, scale), building it on
// first use. Program construction is deterministic, so caching cannot
// change any result; it only removes the dominant allocation cost of
// repeated Build calls across an experiment sweep.
func program(spec Spec, scale Scale) *builtProgram {
	key := fmt.Sprintf("%+v/%d", spec, scale)
	progMu.Lock()
	defer progMu.Unlock()
	if p, ok := progCache[key]; ok {
		return p
	}
	rng := xrand.NewFromString("workload/" + spec.Name + "/" + scale.String())
	prog, roots, handlers := buildProgram(spec, scale, rng)
	p := &builtProgram{prog: prog, roots: roots, handlers: handlers}
	progCache[key] = p
	return p
}

// Build instantiates the workload at the given scale for the given number
// of cores. Construction is deterministic for (spec.Name, scale, cores).
func Build(spec Spec, scale Scale, cores int) *Generated {
	if cores < 1 {
		panic("workload: need at least one core")
	}
	p := program(spec, scale)
	prog, roots, handlers := p.prog, p.roots, p.handlers

	g := &Generated{Spec: spec, Scale: scale, Program: prog, Roots: roots, Handlers: handlers}
	threads := spec.ThreadsPerCore
	if scale == ScaleSmall && threads > 4 {
		threads = 4
	}
	for c := 0; c < cores; c++ {
		x := cfg.NewExecutor(prog, cfg.ExecConfig{
			Roots:             roots,
			RootSkew:          spec.TxnSkew,
			TrapHandlers:      handlers,
			TrapMeanInstrs:    spec.TrapMeanInstrs,
			Threads:           threads,
			ContextSwitchProb: spec.ContextSwitchProb,
			Seed:              fmt.Sprintf("%s/%s/core%d", spec.Name, scale, c),
		})
		g.Execs = append(g.Execs, x)
	}
	return g
}

// AnalysisEvents returns the recommended per-core trace length for the
// offline (functional) analyses, which are cheap enough to afford longer
// traces; longer traces amortize first-occurrence (New) misses, as the
// paper's multi-billion-instruction traces do.
func (s Scale) AnalysisEvents() uint64 {
	switch s {
	case ScaleSmall:
		return 300_000
	case ScaleMedium:
		return 3_000_000
	default:
		return 8_000_000
	}
}
