package sim

import (
	"sort"
	"testing"

	"tifs/internal/workload"
)

// TestConservationInvariants checks the counters' own documented
// contracts (cpu.Stats, prefetch.Stats, Result) on every mechanism and
// every workload, independent of any past output:
//
//   - the fetch outcomes partition BlockFetches;
//   - the three attributed stalls sum to FetchStallCycles;
//   - late next-line blocks are a subset of Misses;
//   - Result.Cycles is the slowest core's clock;
//   - the cores' PrefetchHits agree with the prefetchers' own hit count;
//   - an issuing prefetcher's hits + discards never exceed its Issued.
//
// The last is checked on each core's whole-run prefetcher counters, not
// on Result.Prefetch: those are warmup-subtracted, and a prefetch issued
// before a core's warmup snapshot can be hit or discarded after it.
func TestConservationInvariants(t *testing.T) {
	mechs := testMechanisms()
	names := make([]string, 0, len(mechs))
	for name := range mechs {
		names = append(names, name)
	}
	sort.Strings(names)
	// The mechanisms whose hits come from prefetches they issued; the
	// perfect and probabilistic oracles hit without issuing.
	issuing := map[string]bool{"fdip": true, "discontinuity": true,
		"tifs-unbounded": true, "tifs-dedicated": true, "tifs-virtualized": true}
	for _, spec := range workload.Suite() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			r := NewRunner()
			for _, name := range names {
				res := r.Run(spec, workload.ScaleSmall, Config{EventsPerCore: 40_000, Mechanism: mechs[name]})
				var maxCycles, pfHits uint64
				for i, s := range res.PerCore {
					if got := s.L1Hits + s.NextLineHits + s.PrefetchHits + s.Misses; got != s.BlockFetches {
						t.Errorf("%s core %d: L1 %d + next-line %d + prefetch %d + miss %d = %d, want BlockFetches %d",
							name, i, s.L1Hits, s.NextLineHits, s.PrefetchHits, s.Misses, got, s.BlockFetches)
					}
					if got := s.StallNextLine + s.StallPrefetch + s.StallMiss; got != s.FetchStallCycles {
						t.Errorf("%s core %d: stalls next-line %d + prefetch %d + miss %d = %d, want FetchStallCycles %d",
							name, i, s.StallNextLine, s.StallPrefetch, s.StallMiss, got, s.FetchStallCycles)
					}
					if s.NextLineLate > s.Misses {
						t.Errorf("%s core %d: NextLineLate %d > Misses %d", name, i, s.NextLineLate, s.Misses)
					}
					maxCycles = max(maxCycles, s.Cycles)
					pfHits += s.PrefetchHits
				}
				if res.Cycles != maxCycles {
					t.Errorf("%s: Result.Cycles %d, slowest core %d", name, res.Cycles, maxCycles)
				}
				if h := res.Prefetch.Hits(); pfHits != h {
					t.Errorf("%s: cores counted %d prefetch hits, prefetchers %d", name, pfHits, h)
				}
				if issuing[name] {
					for i, c := range r.cores {
						if st := c.Prefetcher().Stats(); st.Hits()+st.Discards > st.Issued {
							t.Errorf("%s core %d: hits %d + discards %d > issued %d",
								name, i, st.Hits(), st.Discards, st.Issued)
						}
					}
				}
			}
		})
	}
}
