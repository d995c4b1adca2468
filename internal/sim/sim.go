// Package sim assembles the full system of Table II — four cores with
// private L1-I caches and next-line prefetchers, a shared 16-bank L2, and
// a pluggable instruction prefetch mechanism — runs a workload through
// it, and reports the cycle, coverage, and traffic results every
// evaluation figure consumes.
//
// Cores are interleaved in core-local time order so cross-core L2 bank
// contention and the shared TIFS Index Table behave as they would in a
// concurrent system.
package sim

import (
	"fmt"
	"math"

	"tifs/internal/core"
	"tifs/internal/cpu"
	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/uncore"
	"tifs/internal/workload"
)

// Mechanism selects the additional instruction prefetcher attached to
// every core (the base system always includes next-line). FDIP and the
// discontinuity predictor run at their paper-tuned defaults.
type Mechanism struct {
	// Kind is one of the Kind* constants. It stays the first field, so
	// a job key's printed form reads "Mechanism:{Kind:<kind>".
	Kind string
	// TIFS configures the TIFS variants (KindTIFS).
	TIFS core.Config
	// Coverage sets the probabilistic mechanism's coverage (KindProb).
	Coverage float64
}

// Mechanism kinds.
const (
	// KindNone is the next-line-only baseline.
	KindNone = "none"
	// KindFDIP is fetch-directed instruction prefetching.
	KindFDIP = "fdip"
	// KindDiscontinuity is the discontinuity predictor.
	KindDiscontinuity = "discontinuity"
	// KindTIFS is temporal instruction fetch streaming.
	KindTIFS = "tifs"
	// KindPerfect is the perfect streamer upper bound: the
	// probabilistic mechanism at coverage 1.
	KindPerfect = "perfect"
	// KindProb is the Fig. 1 probabilistic mechanism.
	KindProb = "probabilistic"
)

// Baseline returns the next-line-only mechanism.
func Baseline() Mechanism { return Mechanism{Kind: KindNone} }

// FDIP returns the paper-tuned FDIP mechanism.
func FDIP() Mechanism { return Mechanism{Kind: KindFDIP} }

// TIFS wraps a TIFS configuration.
func TIFS(cfg core.Config) Mechanism { return Mechanism{Kind: KindTIFS, TIFS: cfg} }

// Perfect returns the perfect-streaming upper bound: every miss to a
// block fetched before is an instant prefetch hit, as in the paper's
// probabilistic model at 100% coverage (Section 2).
func Perfect() Mechanism { return Mechanism{Kind: KindPerfect} }

// Probabilistic returns the Fig. 1 mechanism at the given coverage.
func Probabilistic(coverage float64) Mechanism {
	return Mechanism{Kind: KindProb, Coverage: coverage}
}

// Discontinuity returns the discontinuity-predictor mechanism.
func Discontinuity() Mechanism { return Mechanism{Kind: KindDiscontinuity} }

// Name labels the mechanism in experiment output.
func (m Mechanism) Name() string {
	switch m.Kind {
	case KindNone:
		return "next-line"
	case KindFDIP:
		return "FDIP"
	case KindDiscontinuity:
		return "discontinuity"
	case KindTIFS:
		return m.TIFS.Name()
	case KindPerfect:
		return "perfect"
	case KindProb:
		// A whole-percent table keeps Runner.Run, which labels every
		// result, allocation-free. %.0f rounds half to even like
		// math.RoundToEven, and prints a sign for negative values,
		// -0 included, which the table lacks.
		pct := 100 * m.Coverage
		if pct >= 0 && pct <= 100 && !math.Signbit(pct) {
			return probNames[int(math.RoundToEven(pct))]
		}
		return fmt.Sprintf("prob-%.0f%%", pct)
	default:
		return m.Kind
	}
}

// probNames holds the names of the whole-percent probabilistic
// mechanisms, "prob-0%" through "prob-100%".
var probNames = func() (names [101]string) {
	for i := range names {
		names[i] = fmt.Sprintf("prob-%d%%", i)
	}
	return names
}()

// Config describes one simulation.
type Config struct {
	// Cores is the CMP width (default 4, as Table II; at most MaxCores).
	Cores int
	// EventsPerCore bounds the measured trace length (0 selects the
	// workload scale's default).
	EventsPerCore uint64
	// WarmupEvents are executed before measurement begins, warming the
	// caches, predictors, and memory queues as the paper's checkpointed
	// sampling does (Section 6.1). 0 selects 25% of EventsPerCore.
	WarmupEvents uint64
	// CPU carries the core parameters; BackendCPI and data traffic are
	// filled from the workload spec if zero.
	CPU cpu.Config
	// Uncore carries the shared-L2 parameters.
	Uncore uncore.Config
	// Mechanism is the attached prefetcher.
	Mechanism Mechanism
}

// Result is the outcome of one simulation run.
type Result struct {
	// Workload and Mechanism identify the configuration.
	Workload  string
	Mechanism string
	// Cycles is the slowest core's clock (makespan); TotalInstrs and
	// TotalEvents aggregate work across cores.
	Cycles      uint64
	TotalInstrs uint64
	TotalEvents uint64
	// PerCore holds each core's counters.
	PerCore []cpu.Stats
	// Prefetch aggregates prefetcher counters across cores.
	Prefetch prefetch.Stats
	// TIFS holds TIFS-specific counters when the mechanism is TIFS.
	TIFS *core.TIFSStats
	// Traffic is the L2 ledger; Uncore the L2 activity counters.
	Traffic uncore.Traffic
	Uncore  uncore.Stats
}

// IPC returns aggregate instructions per (makespan) cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.TotalInstrs) / float64(r.Cycles)
}

// SpeedupOver returns baseline.Cycles / r.Cycles, the Fig. 13 metric.
func (r Result) SpeedupOver(baseline Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(baseline.Cycles) / float64(r.Cycles)
}

// Misses returns aggregate post-next-line demand misses.
func (r Result) Misses() uint64 {
	var n uint64
	for _, s := range r.PerCore {
		n += s.Misses
	}
	return n
}

// Coverage returns the fraction of would-be misses eliminated by the
// mechanism: prefetch hits over prefetch hits plus remaining misses
// (the Fig. 12 normalization).
func (r Result) Coverage() float64 {
	var hits, misses uint64
	for _, s := range r.PerCore {
		hits += s.PrefetchHits
		misses += s.Misses
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// DiscardFrac returns discarded prefetches normalized the same way.
func (r Result) DiscardFrac() float64 {
	var misses uint64
	for _, s := range r.PerCore {
		misses += s.PrefetchHits + s.Misses
	}
	if misses == 0 {
		return 0
	}
	return float64(r.Prefetch.Discards) / float64(misses)
}

// FetchStallShare returns the mean per-core share of cycles lost to
// instruction fetch.
func (r Result) FetchStallShare() float64 {
	if len(r.PerCore) == 0 {
		return 0
	}
	var sum float64
	for _, s := range r.PerCore {
		sum += s.FetchStallShare()
	}
	return sum / float64(len(r.PerCore))
}

// Run executes one configuration over a freshly built workload instance.
// It is a convenience wrapper over a single-use Runner; batch callers
// (the experiment engine) pool Runners to make repeated runs
// allocation-free.
func Run(spec workload.Spec, scale workload.Scale, cfg Config) Result {
	return NewRunner().Run(spec, scale, cfg)
}

// genKey identifies a reusable workload instance. It embeds the whole
// spec — every field participates in workload construction, so two
// same-named specs that differ anywhere must not share an instance.
// Spec is all scalars and strings, so the struct is comparable and the
// map lookup allocation-free.
type genKey struct {
	spec  workload.Spec
	scale workload.Scale
	cores int
}

// genEntry caches one instantiated workload plus values derived from it
// that would otherwise be rebuilt (and allocated) every run.
type genEntry struct {
	gen      *workload.Generated
	sources  []isa.EventSource
	tifsSeed string // spec.Name + "/" + scale.String()
}

// Runner executes simulations while recycling every piece of machine
// state between runs: the workload executors, the per-core caches,
// predictors and next-line buffers, the shared L2, the TIFS instance
// (IMLs, SVBs, and the open-addressed Index Table), and the alternative
// prefetch mechanisms. After a warmup run of a given shape, repeated
// runs perform zero heap allocations (verified by
// TestRunnerSteadyStateZeroAlloc).
//
// The returned Result's PerCore and TIFS fields alias buffers owned by
// the Runner; they are valid until the next Run call, so callers that
// retain results across runs must deep-copy them first (the experiment
// engine does). A Runner is not safe for concurrent use; pool one per
// worker.
type Runner struct {
	gens map[genKey]*genEntry

	un    *uncore.L2
	cores []*cpu.Core
	tifs  *core.TIFS
	fdip  []*prefetch.FDIP
	disc  []*prefetch.Discontinuity
	prob  []*prefetch.Probabilistic // also the perfect streamer

	// probSeeds caches the per-core seed strings of the probabilistic
	// mechanism for the workload named probSpec.
	probSeeds []string
	probSpec  string

	warmStats   []cpu.Stats
	warmPf      []prefetch.Stats
	warmed      []bool
	warmedCount int
	warmTraffic uncore.Traffic
	keys        []uint64
	perCore     []cpu.Stats
	tstats      core.TIFSStats
}

// NewRunner creates an empty Runner; its pools fill on first use.
func NewRunner() *Runner {
	return &Runner{gens: map[genKey]*genEntry{}}
}

// workload returns a reusable instance for (spec, scale, cores), rewound
// to its initial state.
func (r *Runner) workload(spec workload.Spec, scale workload.Scale, cores int) *genEntry {
	key := genKey{spec: spec, scale: scale, cores: cores}
	if ge, ok := r.gens[key]; ok {
		ge.gen.Reset()
		return ge
	}
	gen := workload.Build(spec, scale, cores)
	ge := &genEntry{gen: gen, sources: gen.Sources(), tifsSeed: spec.Name + "/" + scale.String()}
	r.gens[key] = ge
	return ge
}

// Run executes one configuration, reusing the Runner's pooled machine
// state. Results are bit-identical to a fresh Run: every Reset restores
// exactly the state construction would produce.
func (r *Runner) Run(spec workload.Spec, scale workload.Scale, cfg Config) Result {
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if cfg.Cores < 0 || cfg.Cores > MaxCores {
		panic(fmt.Sprintf("sim: %d cores, want 1 to %d", cfg.Cores, MaxCores))
	}
	if cfg.EventsPerCore == 0 {
		cfg.EventsPerCore = scale.DefaultEvents()
	}
	if cfg.WarmupEvents == 0 {
		cfg.WarmupEvents = cfg.EventsPerCore / 4
	}
	if cfg.CPU.BackendCPI == 0 {
		cfg.CPU.BackendCPI = spec.BackendCPI
	}

	ge := r.workload(spec, scale, cfg.Cores)
	if r.un == nil {
		r.un = uncore.New(cfg.Uncore)
	} else {
		r.un.Reset(cfg.Uncore)
	}
	un := r.un

	// A changed core count invalidates everything bound to the core
	// slice (prefetchers hold L1 views into it).
	if len(r.cores) != cfg.Cores {
		r.cores = make([]*cpu.Core, cfg.Cores)
		r.tifs = nil
		r.fdip = nil
		r.disc = nil
		r.prob = nil
	}

	// Build or reset per-core state; TIFS is one shared instance.
	var tifs *core.TIFS
	for i := range r.cores {
		ccfg := cfg.CPU
		ccfg.EventBudget = cfg.WarmupEvents + cfg.EventsPerCore
		c := r.cores[i]
		if c == nil {
			c = cpu.New(i, ccfg, ge.sources[i], nil, un)
			r.cores[i] = c
		} else {
			c.Reset(ccfg, ge.sources[i])
		}
		var pf prefetch.Prefetcher
		switch cfg.Mechanism.Kind {
		case "", KindNone:
			pf = prefetch.None{}
		case KindFDIP:
			if r.fdip == nil {
				r.fdip = make([]*prefetch.FDIP, cfg.Cores)
			}
			if r.fdip[i] == nil {
				r.fdip[i] = prefetch.NewFDIP(prefetch.FDIPConfig{}, i, un, c)
			} else {
				r.fdip[i].Reset(prefetch.FDIPConfig{})
			}
			pf = r.fdip[i]
		case KindDiscontinuity:
			if r.disc == nil {
				r.disc = make([]*prefetch.Discontinuity, cfg.Cores)
			}
			if r.disc[i] == nil {
				r.disc[i] = prefetch.NewDiscontinuity(prefetch.DiscontinuityConfig{}, i, un, c)
			} else {
				r.disc[i].Reset(prefetch.DiscontinuityConfig{})
			}
			pf = r.disc[i]
		case KindTIFS:
			if tifs == nil {
				tcfg := cfg.Mechanism.TIFS
				tcfg.Seed = ge.tifsSeed
				if r.tifs == nil {
					r.tifs = core.New(tcfg, cfg.Cores, un)
				} else {
					r.tifs.Reset(tcfg, un)
				}
				tifs = r.tifs
			}
			pf = tifs.Core(i)
		case KindProb, KindPerfect:
			coverage := cfg.Mechanism.Coverage
			if cfg.Mechanism.Kind == KindPerfect {
				// At coverage 1 the generator is never drawn from.
				coverage = 1
			}
			if r.prob == nil {
				r.prob = make([]*prefetch.Probabilistic, cfg.Cores)
			}
			seed := r.probSeed(spec.Name, i, cfg.Cores)
			if r.prob[i] == nil {
				r.prob[i] = prefetch.NewProbabilistic(coverage, seed)
			} else {
				r.prob[i].Reset(coverage, seed)
			}
			pf = r.prob[i]
		default:
			panic("sim: unknown mechanism " + cfg.Mechanism.Kind)
		}
		c.SetPrefetcher(pf)
	}
	cores := r.cores

	// Interleave cores in core-local time order, snapshotting each core's
	// counters when it crosses its warmup boundary so only steady-state
	// behaviour is measured.
	warmStats := resetSlice(&r.warmStats, cfg.Cores)
	warmPf := resetSlice(&r.warmPf, cfg.Cores)
	resetSlice(&r.warmed, cfg.Cores)
	r.warmedCount = 0
	r.warmTraffic = uncore.Traffic{}
	r.merge(cfg.WarmupEvents, cfg.Cores)

	res := Result{
		Workload:  spec.Name,
		Mechanism: cfg.Mechanism.Name(),
		Traffic:   subTraffic(un.Traffic(), r.warmTraffic),
		Uncore:    un.Stats(),
	}
	if cap(r.perCore) < cfg.Cores {
		r.perCore = make([]cpu.Stats, 0, cfg.Cores)
	}
	r.perCore = r.perCore[:0]
	for i, c := range cores {
		st := subStats(c.Stats(), warmStats[i])
		r.perCore = append(r.perCore, st)
		res.TotalInstrs += st.Instrs
		res.TotalEvents += st.Events
		if st.Cycles > res.Cycles {
			res.Cycles = st.Cycles
		}
		res.Prefetch.Add(subPf(c.Prefetcher().Stats(), warmPf[i]))
	}
	res.PerCore = r.perCore
	if tifs != nil {
		r.tstats = tifs.TIFSStats()
		res.TIFS = &r.tstats
	}
	return res
}

// merge runs the schedule to completion on the calling goroutine.
// Cores are interleaved in core-local time order, lowest clock first
// with ties to the lowest index, so cross-core L2 bank contention and
// the shared TIFS Index Table behave as they would in a concurrent
// system. Each core has one packed key (see coreKey), so the next core
// is the minimum of at most MaxCores words.
func (r *Runner) merge(warmupEvents uint64, nCores int) {
	cores := r.cores
	keys := resetSlice(&r.keys, nCores)
	for i, c := range cores {
		keys[i] = coreKey(c.Cycle(), i)
	}
	for {
		key := minKey(keys)
		if key == exhausted {
			return
		}
		next := int(key & 0xff)
		c := cores[next]
		if !c.Step() {
			keys[next] = exhausted
			continue
		}
		keys[next] = coreKey(c.Cycle(), next)
		if r.warmedCount < nCores {
			r.noteWarm(next, warmupEvents, nCores)
		}
	}
}

// MaxCores is the widest CMP a Runner simulates: coreKey packs the
// core index into the low 8 bits of its key.
const MaxCores = 256

// exhausted is the key of a core whose event source has run dry; it
// sorts after every live core's key.
const exhausted = math.MaxUint64

// coreKey packs (clock, core index) into one word whose unsigned order
// is the scheduler's: lowest clock first, ties to the lowest index. It
// panics on a clock of 2^56-1 or more, which would reach the core bits
// or the exhausted key.
func coreKey(clock uint64, i int) uint64 {
	if clock >= 1<<56-1 {
		panic("sim: core clock overflows the scheduler key")
	}
	return clock<<8 | uint64(i)
}

// minKey returns the smallest key; unless it is exhausted, its low 8
// bits are the index of the core to step next.
func minKey(keys []uint64) uint64 {
	best := keys[0]
	for _, k := range keys[1:] {
		best = min(best, k)
	}
	return best
}

// noteWarm snapshots a core's counters the first time it crosses its
// warmup boundary so only steady-state behaviour is measured.
func (r *Runner) noteWarm(next int, warmupEvents uint64, nCores int) {
	if r.warmed[next] || r.cores[next].Events() < warmupEvents {
		return
	}
	r.warmed[next] = true
	r.warmStats[next] = r.cores[next].Stats()
	r.warmPf[next] = r.cores[next].Prefetcher().Stats()
	r.warmedCount++
	if r.warmedCount == nCores {
		r.warmTraffic = r.un.Traffic()
	}
}

// probSeed returns the cached probabilistic-mechanism seed string for
// (workload, core), rebuilding the cache only when the workload changes.
func (r *Runner) probSeed(workloadName string, i, cores int) string {
	if r.probSpec != workloadName || len(r.probSeeds) != cores {
		r.probSeeds = make([]string, cores)
		for c := 0; c < cores; c++ {
			r.probSeeds[c] = fmt.Sprintf("%s/%d", workloadName, c)
		}
		r.probSpec = workloadName
	}
	return r.probSeeds[i]
}

// resetSlice returns *s resized to n with zeroed elements, reusing its
// backing array.
func resetSlice[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// subStats subtracts a warmup snapshot from final core counters.
func subStats(a, warm cpu.Stats) cpu.Stats {
	a.Cycles -= warm.Cycles
	a.Instrs -= warm.Instrs
	a.Events -= warm.Events
	a.BlockFetches -= warm.BlockFetches
	a.L1Hits -= warm.L1Hits
	a.NextLineHits -= warm.NextLineHits
	a.PrefetchHits -= warm.PrefetchHits
	a.Misses -= warm.Misses
	a.NextLineLate -= warm.NextLineLate
	a.FetchStallCycles -= warm.FetchStallCycles
	a.StallNextLine -= warm.StallNextLine
	a.StallPrefetch -= warm.StallPrefetch
	a.StallMiss -= warm.StallMiss
	a.BranchMispredicts -= warm.BranchMispredicts
	a.Branches -= warm.Branches
	a.Serializations -= warm.Serializations
	return a
}

// subPf subtracts a warmup snapshot from final prefetcher counters.
func subPf(a, warm prefetch.Stats) prefetch.Stats {
	a.Issued -= warm.Issued
	a.HitsTimely -= warm.HitsTimely
	a.HitsLate -= warm.HitsLate
	a.Discards -= warm.Discards
	a.MetaReads -= warm.MetaReads
	a.MetaWrites -= warm.MetaWrites
	return a
}

// subTraffic subtracts the warmup-era ledger.
func subTraffic(a, warm uncore.Traffic) uncore.Traffic {
	return a.Sub(warm)
}
