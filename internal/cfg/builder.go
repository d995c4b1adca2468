package cfg

import (
	"fmt"

	"tifs/internal/isa"
	"tifs/internal/xrand"
)

// FuncSpec controls generation of one synthetic function. The structural
// densities are probabilities that each generated segment is of the given
// kind; remaining probability mass produces straight-line runs.
type FuncSpec struct {
	// Instrs is the approximate target size in instructions; generation
	// stops adding segments once the function reaches it.
	Instrs int
	// HammockFrac is the fraction of segments that are if-then-else
	// hammocks (re-convergent, paper Section 3.2).
	HammockFrac float64
	// LoopFrac is the fraction of segments that are innermost loops.
	LoopFrac float64
	// CallFrac is the fraction of segments that are call sites; ignored
	// when Callees is empty.
	CallFrac float64
	// Callees are the candidate targets for generated call sites.
	Callees []FuncID
	// CalleeFanout bounds the number of distinct callees per indirect call
	// site; 1 produces only direct calls. Defaults to 1.
	CalleeFanout int
	// Unpredictable is the fraction of hammock branches whose outcome is
	// data-dependent (taken probability near 0.5, defeating branch
	// predictors); the rest are strongly biased.
	Unpredictable float64
	// LoopTripMax bounds loop trip counts (mean trips are about half the
	// bound). Transaction code has short inner loops; DSS operator scans
	// run long. Defaults to 8.
	LoopTripMax int
	// Serializing marks the function entry as ROB-draining.
	Serializing bool
}

// Builder assembles a Program: declare regions, add functions, then Build.
// Generation is deterministic for a given RNG seed and call sequence.
type Builder struct {
	rng     *xrand.Rand
	blocks  []BasicBlock // the program table under construction
	funcs   []Function
	calls   []pendingCall
	regions []*regionState
	built   bool
}

// pendingCall is a generated call site that Build resolves: the table
// entry of the calling block and its candidate callees.
type pendingCall struct {
	block   int32
	callees []FuncID
}

type regionState struct {
	info RegionInfo
	next isa.Addr
}

// Region is a handle to an address region under construction.
type Region struct {
	b   *Builder
	idx int
}

// NewBuilder returns a Builder drawing structure from rng.
func NewBuilder(rng *xrand.Rand) *Builder {
	return &Builder{rng: rng}
}

// Region declares an address region starting at base. Regions must not
// overlap; the caller spaces bases far apart (the builder does not check).
func (b *Builder) Region(name string, base isa.Addr) Region {
	b.regions = append(b.regions, &regionState{
		info: RegionInfo{Name: name, Base: base},
		next: base,
	})
	return Region{b: b, idx: len(b.regions) - 1}
}

// AddFunc generates a function in region r from spec and returns its ID.
func (b *Builder) AddFunc(r Region, name string, spec FuncSpec) FuncID {
	if b.built {
		panic("cfg: AddFunc after Build")
	}
	reg := b.regions[r.idx]
	id := FuncID(len(b.funcs))
	b.funcs = append(b.funcs, b.generate(name, reg, spec))
	return id
}

// Build finalizes and validates the program: it copies the table to its
// exact size and resolves every successor to its PC, and every call site
// to its callee's entry or, for an indirect site, to an entry of
// Program.Calls. The builder must not be used afterwards.
func (b *Builder) Build() (*Program, error) {
	if b.built {
		return nil, fmt.Errorf("cfg: Build called twice")
	}
	b.built = true
	p := &Program{Funcs: b.funcs, Blocks: make([]BasicBlock, len(b.blocks))}
	copy(p.Blocks, b.blocks)
	for i := range p.Blocks {
		if blk := &p.Blocks[i]; blk.Kind == isa.CTBranch || blk.Kind == isa.CTJump {
			blk.Target = p.Blocks[blk.Succ].PC
		}
	}
	for _, c := range b.calls {
		for _, id := range c.callees {
			if int(id) < 0 || int(id) >= len(p.Funcs) {
				return nil, fmt.Errorf("cfg: call site callee %d out of range", id)
			}
		}
		blk := &p.Blocks[c.block]
		if len(c.callees) == 1 {
			f := &p.Funcs[c.callees[0]]
			blk.Succ, blk.Target = f.First, f.Entry
			continue
		}
		blk.Indirect = true
		blk.Succ = int32(len(p.Calls))
		p.Calls = append(p.Calls, CallSite{
			Callees: c.callees,
			Zipf:    xrand.NewZipfTable(len(c.callees), calleeSkew),
		})
	}
	for _, r := range b.regions {
		r.info.Bytes = int(r.next - r.info.Base)
		p.Regions = append(p.Regions, r.info)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build that panics on error; generation errors are
// programming errors, so most callers use this form.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// generate appends the structured block list for one function to the
// table and lays it out at the region's next address. Successor indices
// are table-wide; Build resolves their PCs.
func (b *Builder) generate(name string, reg *regionState, spec FuncSpec) Function {
	if spec.Instrs < 4 {
		spec.Instrs = 4
	}
	if spec.CalleeFanout < 1 {
		spec.CalleeFanout = 1
	}
	if spec.LoopTripMax < 2 {
		spec.LoopTripMax = 8
	}
	rng := b.rng

	first := int32(len(b.blocks))
	instrs := 0
	addBlock := func(n int, blk BasicBlock) int32 {
		if n < 1 {
			n = 1
		}
		blk.Instrs = int32(n)
		b.blocks = append(b.blocks, blk)
		instrs += n
		return int32(len(b.blocks) - 1)
	}

	for instrs < spec.Instrs {
		roll := rng.Float64()
		callOK := len(spec.Callees) > 0
		switch {
		case callOK && roll < spec.CallFrac:
			b.genCallSite(rng, spec, addBlock)
		case roll < spec.CallFrac+spec.HammockFrac:
			b.genHammock(rng, spec, addBlock)
		case roll < spec.CallFrac+spec.HammockFrac+spec.LoopFrac:
			b.genLoop(rng, spec, addBlock)
		default:
			// Straight-line run. Kept short: server code carries roughly
			// one conditional branch per 8-12 instructions, which is what
			// limits branch-predictor-directed prefetchers (Fig. 10); an
			// occasional long run models unrolled/straight-line stretches.
			n := rng.Range(3, 14)
			if rng.Bool(0.08) {
				n = rng.Range(20, 48)
			}
			addBlock(n, BasicBlock{Kind: isa.CTFallthrough})
		}
	}
	// Epilogue.
	addBlock(rng.Range(1, 4), BasicBlock{Kind: isa.CTReturn})
	b.blocks[first].Serializing = spec.Serializing

	// Lay out at the region cursor and assign PCs.
	entry := reg.next
	pc := entry
	for i := first; i < int32(len(b.blocks)); i++ {
		b.blocks[i].PC = pc
		pc = pc.Add(int(b.blocks[i].Instrs))
	}
	// Pad to the next 4-instruction boundary plus a small random gap so
	// function entries land at varied block offsets, as in real images.
	pad := rng.Range(0, 12)
	reg.next = pc.Add(pad)
	reg.info.Funcs++

	return Function{
		Name:   name,
		Entry:  entry,
		First:  first,
		End:    int32(len(b.blocks)),
		Instrs: instrs,
		Region: reg.info.Name,
	}
}

// polymorphicSiteProb is the fraction of call sites that are indirect
// with more than one observed target. Server code is predominantly
// monomorphic at any given site; keeping this low preserves the
// recurring miss sequences TIFS relies on, while the remaining
// polymorphic sites provide the divergent-stream cases of Fig. 6.
const polymorphicSiteProb = 0.12

// calleeSkew is the Zipf skew over an indirect site's targets: even
// polymorphic sites are dominated by one hot target.
const calleeSkew = 2.2

// genCallSite emits a block ending in a (possibly indirect) call.
func (b *Builder) genCallSite(rng *xrand.Rand, spec FuncSpec, addBlock func(int, BasicBlock) int32) {
	fanout := 1
	if spec.CalleeFanout > 1 && rng.Bool(polymorphicSiteProb) {
		fanout = rng.Range(2, spec.CalleeFanout)
		if fanout > len(spec.Callees) {
			fanout = len(spec.Callees)
		}
	}
	callees := make([]FuncID, 0, fanout)
	seen := make(map[FuncID]bool, fanout)
	for len(callees) < fanout {
		c := spec.Callees[rng.Intn(len(spec.Callees))]
		if seen[c] {
			// Small candidate pools may not have enough distinct targets.
			if len(seen) >= len(spec.Callees) {
				break
			}
			continue
		}
		seen[c] = true
		callees = append(callees, c)
	}
	blk := addBlock(rng.Range(2, 10), BasicBlock{Kind: isa.CTCall})
	b.calls = append(b.calls, pendingCall{block: blk, callees: callees})
}

// genHammock emits cond + then-path + else-path; the join point is the
// next segment generated after it.
func (b *Builder) genHammock(rng *xrand.Rand, spec FuncSpec, addBlock func(int, BasicBlock) int32) {
	var prob float64
	if rng.Bool(spec.Unpredictable) {
		prob = 0.35 + 0.3*rng.Float64() // data-dependent, near 50/50
	} else if rng.Bool(0.5) {
		prob = 0.003 + 0.03*rng.Float64() // strongly not-taken
	} else {
		prob = 0.967 + 0.03*rng.Float64() // strongly taken
	}
	// Hammock arms are small and equal-sized, like the paper's highbit()
	// mask-and-add hammocks: both arms usually live inside the same cache
	// block(s), so a direction flip does not change the *block* sequence.
	// A minority of hammocks have unequal arms whose flips do perturb the
	// fetch footprint — the divergence that shortens temporal streams.
	armInstrs := rng.Range(3, 8)
	thenInstrs, elseInstrs := armInstrs, armInstrs
	if rng.Bool(0.2) {
		elseInstrs = rng.Range(3, 20)
	}

	cond := addBlock(rng.Range(3, 8), BasicBlock{Kind: isa.CTBranch, TakenProb: prob})
	// Then-path (not-taken fallthrough): ends jumping over the else-path.
	then := addBlock(thenInstrs, BasicBlock{Kind: isa.CTJump})
	// Else-path (taken target): falls through into the join.
	elseStart := addBlock(elseInstrs, BasicBlock{Kind: isa.CTFallthrough})
	b.blocks[cond].Succ = elseStart
	b.blocks[then].Succ = elseStart + 1 // the join
}

// genLoop emits an innermost loop: body blocks with a backward branch.
func (b *Builder) genLoop(rng *xrand.Rand, spec FuncSpec, addBlock func(int, BasicBlock) int32) {
	bodyBlocks := rng.Range(1, 3)
	trip := rng.Range(2, spec.LoopTripMax)
	contProb := float64(trip) / float64(trip+1)
	start := int32(len(b.blocks))
	for i := 0; i < bodyBlocks; i++ {
		if i == bodyBlocks-1 {
			addBlock(rng.Range(3, 12), BasicBlock{
				Kind:      isa.CTBranch,
				Succ:      start,
				TakenProb: contProb,
				InnerLoop: true,
			})
		} else {
			addBlock(rng.Range(3, 12), BasicBlock{Kind: isa.CTFallthrough})
		}
	}
}
