package cpu

import (
	"testing"

	"tifs/internal/cache"
	"tifs/internal/core"
	"tifs/internal/isa"
	"tifs/internal/prefetch"
	"tifs/internal/uncore"
	"tifs/internal/workload"
)

// refNLIssue is nlIssue as it was before the memo: it probes all
// NextLineDepth blocks after b on every call.
func refNLIssue(c *Core, b isa.Block, now uint64) {
	for d := 1; d <= c.cfg.NextLineDepth; d++ {
		nb := b + isa.Block(d)
		if c.l1.Contains(nb) || c.nl.contains(nb) {
			continue
		}
		c.nl.insert(nb, c.un.ReadBlock(c.ID, nb, now, uncore.TrafficNextLine))
	}
}

// refStep is Step as it was before the next-line memo and the fused
// branch resolution: every block fetch probes the L1 with Access and
// calls refNLIssue, and the predictor predicts and then updates.
func refStep(c *Core) bool {
	c.fillWindow()
	if c.head >= len(c.window) {
		c.done = true
		return false
	}
	ev := &c.window[c.head]
	if !c.pfNone {
		end := min(c.head+c.cfg.WindowEvents, len(c.window))
		c.pf.OnWindow(c.window[c.head:end], c.cycle)
	}
	if ev.Serializing {
		c.stats.Serializations++
		c.cycle += uint64(c.cfg.SerializePenalty)
	}
	first := ev.PC.Block()
	last := ev.LastPC().Block()
	for b := first; b <= last; b++ {
		c.stats.BlockFetches++
		var outcome prefetch.FetchOutcome
		switch {
		case c.l1.Access(b):
			outcome = prefetch.FetchL1Hit
			c.stats.L1Hits++
		default:
			if ready, ok := c.probePf(b); ok {
				outcome = prefetch.FetchPrefetchHit
				c.stats.PrefetchHits++
				c.stall(ready, ev.Serializing, &c.stats.StallPrefetch)
				c.nl.take(b)
			} else if ready, ok := c.nl.take(b); ok {
				if ready <= c.cycle {
					outcome = prefetch.FetchNextLineHit
					c.stats.NextLineHits++
				} else {
					outcome = prefetch.FetchMiss
					c.stats.Misses++
					c.stats.NextLineLate++
					c.stall(ready, ev.Serializing, &c.stats.StallNextLine)
				}
			} else {
				outcome = prefetch.FetchMiss
				c.stats.Misses++
				ready := c.un.ReadBlock(c.ID, b, c.cycle, uncore.TrafficFetch)
				c.stall(ready, ev.Serializing, &c.stats.StallMiss)
			}
			c.l1.Fill(b)
		}
		if !c.pfNone {
			c.pf.OnFetchBlock(b, outcome, c.cycle)
		}
		refNLIssue(c, b, c.cycle)
	}
	c.execAcc += float64(ev.Instrs) * c.execCPI
	if c.execAcc >= 1 {
		whole := uint64(c.execAcc)
		c.cycle += whole
		c.execAcc -= float64(whole)
	}
	c.dataAcc += float64(ev.Instrs) * c.cfg.DataBlocksPer1kInstr / 1000
	if c.dataAcc >= 1 {
		whole := uint64(c.dataAcc)
		c.un.AddDataTraffic(whole)
		c.dataAcc -= float64(whole)
	}
	if ev.Kind.IsConditional() {
		c.stats.Branches++
		if c.pred.Predict(ev.LastPC()) != ev.Taken {
			c.stats.BranchMispredicts++
			c.cycle += uint64(c.cfg.MispredictPenalty)
		}
		c.pred.Update(ev.LastPC(), ev.Taken)
	}
	if !c.pfNone {
		c.pf.OnEvent(*ev, c.cycle)
	}
	c.stats.Events++
	c.stats.Instrs += uint64(ev.Instrs)
	c.head++
	return true
}

// fetchPair is one core stepped by Step and one by refStep, each with
// its own uncore and its own copy of the prefetcher.
type fetchPair struct {
	got, want     *Core
	gotUn, wantUn *uncore.L2
}

// newFetchPair builds the pair over sources a and b, which must yield
// the same events, attaching the prefetcher mk builds for each core.
func newFetchPair(cfg Config, a, b isa.EventSource, mk func(c *Core, un *uncore.L2) prefetch.Prefetcher) *fetchPair {
	p := &fetchPair{gotUn: uncore.New(uncore.Config{}), wantUn: uncore.New(uncore.Config{})}
	p.got = New(0, cfg, a, nil, p.gotUn)
	p.want = New(0, cfg, b, nil, p.wantUn)
	if mk != nil {
		p.got.SetPrefetcher(mk(p.got, p.gotUn))
		p.want.SetPrefetcher(mk(p.want, p.wantUn))
	}
	return p
}

// run steps both cores to the end, comparing the counters, the clock,
// the prefetcher's counters and the uncore's traffic and activity after
// every event.
func (p *fetchPair) run(t *testing.T, name string) {
	t.Helper()
	for step := 0; ; step++ {
		ok, wantOK := p.got.Step(), refStep(p.want)
		if ok != wantOK {
			t.Fatalf("%s step %d: Step = %v, reference %v", name, step, ok, wantOK)
		}
		if g, w := p.got.Stats(), p.want.Stats(); g != w {
			t.Fatalf("%s step %d: stats differ\ngot  %+v\nwant %+v", name, step, g, w)
		}
		if g, w := p.got.Cycle(), p.want.Cycle(); g != w {
			t.Fatalf("%s step %d: clock %d, reference %d", name, step, g, w)
		}
		if g, w := p.got.Prefetcher().Stats(), p.want.Prefetcher().Stats(); g != w {
			t.Fatalf("%s step %d: prefetcher stats differ\ngot  %+v\nwant %+v", name, step, g, w)
		}
		if g, w := p.gotUn.Traffic(), p.wantUn.Traffic(); g != w {
			t.Fatalf("%s step %d: uncore traffic differs\ngot  %+v\nwant %+v", name, step, g, w)
		}
		if g, w := p.gotUn.Stats(), p.wantUn.Stats(); g != w {
			t.Fatalf("%s step %d: uncore stats differ\ngot  %+v\nwant %+v", name, step, g, w)
		}
		if !ok {
			return
		}
	}
}

// TestFetchUnitMatchesReference steps the memoized fetch unit and the
// reference one over core 0 of every small workload, under next-line
// alone, FDIP and TIFS-virtualized, and under next-line alone with a
// 1-set L1, where the memo must stay off: there a fill of block b+1 can
// evict block b+2.
func TestFetchUnitMatchesReference(t *testing.T) {
	events := uint64(20_000)
	if testing.Short() {
		events = 4_000
	}
	mechs := map[string]func(c *Core, un *uncore.L2) prefetch.Prefetcher{
		"next-line": nil,
		"fdip": func(c *Core, un *uncore.L2) prefetch.Prefetcher {
			return prefetch.NewFDIP(prefetch.FDIPConfig{}, 0, un, c)
		},
		"tifs-virtualized": func(c *Core, un *uncore.L2) prefetch.Prefetcher {
			cfg := core.VirtualizedConfig()
			cfg.Seed = "fetch-ref"
			return core.New(cfg, 1, un).Core(0)
		},
	}
	for _, spec := range workload.Suite() {
		for name, mk := range mechs {
			src := func() isa.EventSource {
				return workload.Build(spec, workload.ScaleSmall, 1).Sources()[0]
			}
			cfg := Config{BackendCPI: spec.BackendCPI, EventBudget: events}
			newFetchPair(cfg, src(), src(), mk).run(t, spec.Name+"/"+name)
			if name == "next-line" {
				cfg.L1I = cache.Config{SizeBytes: 2 * isa.BlockBytes, Assoc: 2}
				newFetchPair(cfg, src(), src(), nil).run(t, spec.Name+"/1-set")
			}
		}
	}
}

// blockEvents returns one single-block event per block.
func blockEvents(blocks ...isa.Block) []isa.BlockEvent {
	evs := make([]isa.BlockEvent, len(blocks))
	for i, b := range blocks {
		pc := isa.Addr(b) << isa.BlockShift
		evs[i] = isa.BlockEvent{PC: pc, Instrs: isa.InstrsPerBlock, Kind: isa.CTJump, Taken: true, Target: pc}
	}
	return evs
}

// TestFetchUnitEvictedNextLineBlock crafts the one case where nlIssue's
// own insert uncovers a block: the next-line buffer is full with block
// 101 its oldest entry, block 102 is nowhere, and a fetch of block 100
// inserts 102, which evicts 101. Fetching 100 again must re-issue 101,
// as the reference does, rather than take the re-fetch shortcut.
func TestFetchUnitEvictedNextLineBlock(t *testing.T) {
	// A 4-set, 2-way L1: block b sits in set b&3.
	cfg := Config{BackendCPI: 0.4, L1I: cache.Config{SizeBytes: 8 * isa.BlockBytes, Assoc: 2}}
	// 100 buffers 101 and 102; 102 moves to the L1 and buffers 103 and
	// 104; 1002 and 2002 share set 2 with 102 and evict it.
	setup := []isa.Block{100, 102, 1002, 2002}
	// Each far block in set 1 buffers its two successors, and the last
	// takes one of those and buffers two more: 7 + 56 + 1 = 64 entries.
	far := isa.Block(5001)
	for i := 0; i < 28; i++ {
		setup = append(setup, far+isa.Block(8*i))
	}
	setup = append(setup, far+8*27+2)

	pre := blockEvents(setup...)
	p := newFetchPair(cfg, isa.NewSliceSource(pre), isa.NewSliceSource(pre), nil)
	for range pre {
		p.got.Step()
		refStep(p.want)
	}
	c := p.got
	if c.nl.live != nlCapacity || c.nl.block[c.nl.newer[0]] != 101 {
		t.Fatalf("setup: buffer holds %d entries, oldest %d; want %d, oldest 101", c.nl.live, c.nl.block[c.nl.newer[0]], nlCapacity)
	}
	if c.l1.Contains(102) || c.nl.contains(102) {
		t.Fatal("setup: block 102 is still cached or buffered")
	}

	evs := append(pre, blockEvents(100, 100, 101, 102, 100)...)
	newFetchPair(cfg, isa.NewSliceSource(evs), isa.NewSliceSource(evs), nil).run(t, "evicted-next-line")
}
