package workload

import (
	"testing"

	"tifs/internal/isa"
)

// wantTableSizes pins each small-scale program's basic-block count and
// TotalBlocks (distinct 64-byte cache blocks), as the pointer-graph
// builder produced them.
var wantTableSizes = map[string][2]int{
	"OLTP-DB2":    {10650, 5100},
	"OLTP-Oracle": {11445, 5614},
	"DSS-Qry2":    {3423, 1690},
	"DSS-Qry17":   {2862, 1481},
	"Web-Apache":  {8292, 3890},
	"Web-Zeus":    {4384, 2161},
}

// TestProgramTables checks the program table of every small-scale
// workload directly, without Program.Validate: each function's index
// range is contiguous in PC, each branch or jump successor lies inside
// its own function, each direct call lands on the first entry of a
// function, and the table holds as many blocks as the builder made.
func TestProgramTables(t *testing.T) {
	for _, spec := range Suite() {
		p := Build(spec, ScaleSmall, 1).Program
		firsts := make(map[int32]bool, len(p.Funcs))
		for _, f := range p.Funcs {
			firsts[f.First] = true
		}
		ranged := 0
		for _, f := range p.Funcs {
			ranged += int(f.End - f.First)
			pc := f.Entry
			for j := f.First; j < f.End; j++ {
				b := p.Blocks[j]
				if b.PC != pc {
					t.Fatalf("%s %s: entry %d at %v, want %v", spec.Name, f.Name, j, b.PC, pc)
				}
				pc = pc.Add(int(b.Instrs))
				switch {
				case b.Kind == isa.CTBranch || b.Kind == isa.CTJump:
					if b.Succ < f.First || b.Succ >= f.End {
						t.Fatalf("%s %s: entry %d successor %d outside [%d, %d)", spec.Name, f.Name, j, b.Succ, f.First, f.End)
					}
				case b.Kind == isa.CTCall && !b.Indirect:
					if !firsts[b.Succ] {
						t.Fatalf("%s %s: entry %d calls %d, no function's first entry", spec.Name, f.Name, j, b.Succ)
					}
				}
			}
		}
		want := wantTableSizes[spec.Name]
		if got := [2]int{len(p.Blocks), p.TotalBlocks()}; got != want || ranged != len(p.Blocks) {
			t.Errorf("%s: %d entries (%d in function ranges), %d cache blocks; want %d and %d",
				spec.Name, len(p.Blocks), ranged, got[1], want[0], want[1])
		}
	}
}

// BenchmarkEventGeneration drives the medium OLTP-DB2 executors as the
// fetch unit and trace extraction draw from them: NextBatch in 96-event
// batches, round robin over 4 cores. One op is one batch on every core.
func BenchmarkEventGeneration(b *testing.B) {
	spec, _ := ByName("OLTP-DB2")
	g := Build(spec, ScaleMedium, 4)
	var batch [96]isa.BlockEvent
	// Grow every call stack to its working depth before timing.
	for i := 0; i < 2000; i++ {
		for _, x := range g.Execs {
			x.NextBatch(batch[:])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range g.Execs {
			x.NextBatch(batch[:])
		}
	}
	b.ReportMetric(float64(b.N*len(g.Execs)*len(batch))/b.Elapsed().Seconds(), "events/s")
}
