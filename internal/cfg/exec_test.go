package cfg

import (
	"testing"

	"tifs/internal/isa"
)

func newTestExecutor(t testing.TB, seed string, threads int, trapMean int) (*Executor, *Program) {
	t.Helper()
	prog, roots, handlers := buildTestProgram(t, seed)
	cfg := ExecConfig{
		Roots:             roots,
		RootSkew:          0.8,
		Threads:           threads,
		ContextSwitchProb: 0.5,
		Seed:              seed,
	}
	if trapMean > 0 {
		cfg.TrapHandlers = handlers
		cfg.TrapMeanInstrs = trapMean
	}
	return NewExecutor(prog, cfg), prog
}

// TestExecutorStreamConsistency is the central executor invariant: each
// event's recorded outcome must take fetch exactly to the next event's PC,
// except across asynchronous trap redirects, which must be flagged CTTrap.
func TestExecutorStreamConsistency(t *testing.T) {
	x, _ := newTestExecutor(t, "consistency", 4, 2000)
	prev, _ := x.Next()
	for i := 0; i < 200000; i++ {
		ev, ok := x.Next()
		if !ok {
			t.Fatal("infinite source returned ok=false")
		}
		if prev.Kind == isa.CTTrap || prev.Kind == isa.CTTrapReturn {
			// Redirects carry their target explicitly.
			if prev.Target != ev.PC {
				t.Fatalf("event %d: trap redirect target %v but next PC %v", i, prev.Target, ev.PC)
			}
		} else if prev.NextPC() != ev.PC {
			t.Fatalf("event %d: prev %+v NextPC %v != next PC %v", i, prev, prev.NextPC(), ev.PC)
		}
		if ev.Instrs < 1 {
			t.Fatalf("event %d has %d instrs", i, ev.Instrs)
		}
		prev = ev
	}
}

func TestExecutorDeterminism(t *testing.T) {
	x1, _ := newTestExecutor(t, "det", 2, 5000)
	x2, _ := newTestExecutor(t, "det", 2, 5000)
	for i := 0; i < 50000; i++ {
		e1, _ := x1.Next()
		e2, _ := x2.Next()
		if e1 != e2 {
			t.Fatalf("event %d differs: %+v vs %+v", i, e1, e2)
		}
	}
}

func TestExecutorTrapsOccur(t *testing.T) {
	x, prog := newTestExecutor(t, "traps", 1, 1000)
	sawTrap, sawTrapRet, sawSerializing := false, false, false
	inKernel := false
	for i := 0; i < 100000; i++ {
		ev, _ := x.Next()
		switch ev.Kind {
		case isa.CTTrap:
			sawTrap = true
			inKernel = true
		case isa.CTTrapReturn:
			sawTrapRet = true
			inKernel = false
		}
		if ev.Serializing {
			sawSerializing = true
		}
		_ = inKernel
	}
	if !sawTrap || !sawTrapRet {
		t.Errorf("traps=%v trapReturns=%v, want both", sawTrap, sawTrapRet)
	}
	if !sawSerializing {
		t.Error("serializing handler entry never observed")
	}
	st := x.Stats()
	if st.Traps == 0 {
		t.Error("stats recorded no traps")
	}
	// Mean instructions between traps should be near the configured mean.
	got := float64(st.Instrs) / float64(st.Traps)
	if got < 500 || got > 2000 {
		t.Errorf("instrs/trap = %f, want ~1000", got)
	}
	_ = prog
}

func TestExecutorTrapRedirectsToHandler(t *testing.T) {
	x, prog := newTestExecutor(t, "redirect", 1, 500)
	handlerEntries := make(map[isa.Addr]bool)
	for _, f := range prog.Funcs {
		if f.Region == "os" {
			handlerEntries[f.Entry] = true
		}
	}
	for i := 0; i < 50000; i++ {
		ev, _ := x.Next()
		if ev.Kind == isa.CTTrap {
			next, _ := x.Next()
			if !handlerEntries[next.PC] {
				t.Fatalf("trap target %v is not an OS function entry", next.PC)
			}
			i++
		}
	}
}

func TestExecutorContextSwitches(t *testing.T) {
	x, _ := newTestExecutor(t, "ctx", 8, 500)
	for i := 0; i < 200000; i++ {
		x.Next()
	}
	if x.Stats().ContextSwitches == 0 {
		t.Error("no context switches with 8 threads and csProb 0.5")
	}
}

func TestExecutorSingleThreadNeverSwitches(t *testing.T) {
	x, _ := newTestExecutor(t, "single", 1, 500)
	for i := 0; i < 50000; i++ {
		x.Next()
	}
	if x.Stats().ContextSwitches != 0 {
		t.Error("single-threaded executor recorded context switches")
	}
}

func TestExecutorTransactionsDispatch(t *testing.T) {
	x, _ := newTestExecutor(t, "txn", 1, 0)
	for i := 0; i < 100000; i++ {
		x.Next()
	}
	st := x.Stats()
	if st.Transactions < 2 {
		t.Errorf("only %d transactions dispatched", st.Transactions)
	}
	if st.Events != 100000 {
		t.Errorf("Events = %d", st.Events)
	}
	if st.Instrs == 0 {
		t.Error("no instructions counted")
	}
	if st.Traps != 0 {
		t.Error("traps occurred with traps disabled")
	}
}

func TestExecutorRepetition(t *testing.T) {
	// The same driver dispatched repeatedly must revisit the same code
	// blocks: over a long run, the set of distinct PCs is bounded by the
	// program size while the event count is much larger.
	x, prog := newTestExecutor(t, "repeat", 1, 0)
	distinct := make(map[isa.Addr]bool)
	const n = 200000
	for i := 0; i < n; i++ {
		ev, _ := x.Next()
		distinct[ev.PC] = true
	}
	maxBlocks := 0
	for id := range prog.Funcs {
		maxBlocks += len(prog.FuncBlocks(FuncID(id)))
	}
	if len(distinct) > maxBlocks {
		t.Errorf("distinct PCs %d exceeds static blocks %d", len(distinct), maxBlocks)
	}
	if len(distinct) < 10 {
		t.Errorf("suspiciously few distinct blocks: %d", len(distinct))
	}
}

func TestExecutorCallStackBalance(t *testing.T) {
	// Depth tracked via call/return events must never go negative and must
	// stay bounded (layered call DAG: driver -> mid -> leaf plus traps).
	x, _ := newTestExecutor(t, "depth", 2, 2000)
	depth := 0
	maxDepth := 0
	for i := 0; i < 200000; i++ {
		ev, _ := x.Next()
		switch ev.Kind {
		case isa.CTCall:
			depth++
		case isa.CTReturn:
			depth--
		}
		if depth > maxDepth {
			maxDepth = depth
		}
	}
	// Returns at empty dispatcher stacks make the count drift negative
	// over transactions; it must never exceed the static layering bound
	// upward between dispatches.
	if maxDepth > 64 {
		t.Errorf("call depth reached %d; call graph should be shallow", maxDepth)
	}
}

func TestExecutorPanicsOnBadConfig(t *testing.T) {
	prog, roots, _ := buildTestProgram(t, "badcfg")
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no roots", func() {
		NewExecutor(prog, ExecConfig{})
	})
	mustPanic("traps without handlers", func() {
		NewExecutor(prog, ExecConfig{Roots: roots, TrapMeanInstrs: 100})
	})
}

func TestExecutorInnerLoopFlagged(t *testing.T) {
	x, _ := newTestExecutor(t, "loops", 1, 0)
	sawInner := false
	for i := 0; i < 100000 && !sawInner; i++ {
		ev, _ := x.Next()
		if ev.InnerLoop {
			if ev.Kind != isa.CTBranch {
				t.Fatalf("InnerLoop on %v event", ev.Kind)
			}
			if ev.Target > ev.PC {
				t.Fatalf("inner loop branch target %v is forward of %v", ev.Target, ev.PC)
			}
			sawInner = true
		}
	}
	if !sawInner {
		t.Error("no inner-loop branches observed (leaf2 has LoopFrac 0.4)")
	}
}
