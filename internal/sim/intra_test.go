package sim

import (
	"testing"

	"tifs/internal/cpu"
	"tifs/internal/workload"
)

// copyResult deep-copies a Result out of the Runner's pooled buffers so
// it survives subsequent runs on the same Runner.
func copyResult(r Result) Result {
	r.PerCore = append([]cpu.Stats(nil), r.PerCore...)
	if r.TIFS != nil {
		t := *r.TIFS
		r.TIFS = &t
	}
	return r
}

// TestIntraByteIdentity is the core determinism guarantee of the
// intra-parallel path: for every mechanism, sharding event generation
// across 2/3/4/8 producers yields a Result identical in every field to
// the serial schedule — including shard counts that exceed or don't
// divide the core count.
func TestIntraByteIdentity(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	for name, m := range testMechanisms() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{EventsPerCore: 20_000, WarmupEvents: 5_000, Mechanism: m}
			serial := Run(spec, workload.ScaleSmall, cfg)
			for _, intra := range []int{2, 3, 4, 8} {
				icfg := cfg
				icfg.IntraParallelism = intra
				got := Run(spec, workload.ScaleSmall, icfg)
				if !resultsEqual(serial, got) {
					t.Errorf("intra=%d diverged from serial\nserial: %+v\nintra:  %+v",
						intra, serial, got)
				}
			}
		})
	}
}

// TestIntraBudgetEdges exercises the epoch-ring termination protocol at
// its boundaries: a total budget below one chunk, exactly one chunk, an
// exact multiple of the chunk size (which requires the empty terminal
// chunk), and one event past a chunk boundary.
func TestIntraBudgetEdges(t *testing.T) {
	spec, ok := workload.ByName("Web-Apache")
	if !ok {
		t.Fatal("workload missing")
	}
	for _, tc := range []struct {
		name           string
		events, warmup uint64
	}{
		{"sub-chunk", 1_000, 200},
		{"one-chunk", intraChunkEvents - 512, 512},
		{"exact-multiple", 3 * intraChunkEvents, intraChunkEvents},
		{"one-past", 2*intraChunkEvents - 511, 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{EventsPerCore: tc.events, WarmupEvents: tc.warmup, Mechanism: Baseline()}
			serial := Run(spec, workload.ScaleSmall, cfg)
			cfg.IntraParallelism = 4
			got := Run(spec, workload.ScaleSmall, cfg)
			if !resultsEqual(serial, got) {
				t.Errorf("%s: intra diverged from serial", tc.name)
			}
		})
	}
}

// TestIntraPooledRunnerChurn drives one pooled Runner back and forth
// between serial and intra-parallel runs of different shapes: pooled
// ring/worker state from one setting must never leak into the next.
func TestIntraPooledRunnerChurn(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	web, ok := workload.ByName("Web-Zeus")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := Config{EventsPerCore: 15_000, WarmupEvents: 4_000, Mechanism: Baseline()}
	r := NewRunner()
	for _, step := range []struct {
		spec  workload.Spec
		intra int
	}{
		{spec, 0}, {spec, 8}, {web, 2}, {spec, 1}, {web, 0}, {spec, 4}, {spec, 0},
	} {
		c := cfg
		c.IntraParallelism = step.intra
		pooled := copyResult(r.Run(step.spec, workload.ScaleSmall, c))
		fresh := Run(step.spec, workload.ScaleSmall, cfg)
		if !resultsEqual(fresh, pooled) {
			t.Errorf("%s intra=%d: pooled run diverged from serial fresh run",
				step.spec.Name, step.intra)
		}
	}
}

// TestIntraRace runs the maximum shard fan-out repeatedly on one pooled
// Runner; its value is under `go test -race`, where it sweeps the
// producer/consumer handoff, the ring reset, and worker-pool reuse.
func TestIntraRace(t *testing.T) {
	spec, ok := workload.ByName("DSS-Qry17")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := Config{
		EventsPerCore:    12_000,
		WarmupEvents:     3_000,
		Mechanism:        FDIP(),
		IntraParallelism: 8,
	}
	r := NewRunner()
	var first Result
	for i := 0; i < 3; i++ {
		got := copyResult(r.Run(spec, workload.ScaleSmall, cfg))
		if i == 0 {
			first = got
		} else if !resultsEqual(first, got) {
			t.Fatalf("run %d diverged under intra=8", i)
		}
	}
}

// TestRunnerClose: Close releases the worker goroutines, is idempotent,
// and leaves the Runner fully usable — a later run recreates workers
// and still matches a fresh serial run.
func TestRunnerClose(t *testing.T) {
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload missing")
	}
	cfg := Config{
		EventsPerCore:    12_000,
		WarmupEvents:     3_000,
		Mechanism:        Baseline(),
		IntraParallelism: 4,
	}
	serial := cfg
	serial.IntraParallelism = 0
	want := Run(spec, workload.ScaleSmall, serial)

	r := NewRunner()
	r.Close() // Close before any run is a no-op
	for i := 0; i < 3; i++ {
		got := copyResult(r.Run(spec, workload.ScaleSmall, cfg))
		if !resultsEqual(want, got) {
			t.Fatalf("cycle %d: run after Close diverged", i)
		}
		r.Close()
		r.Close() // idempotent
	}
}
