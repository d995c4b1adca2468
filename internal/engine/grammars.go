package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tifs/internal/sequitur"
	"tifs/internal/trace"
)

// The grammar tier: fig3, fig5, and fig6 each run SEQUITUR over a
// workload's per-core miss traces before analyzing the grammar. The
// traces themselves are memoized and persisted, and so are the
// grammars: Grammars memoizes the per-core snapshots in-process and
// persists them in the store under the miss-trace key plus the analysis
// variant, so a warm rerun pays neither the trace extraction nor the
// SEQUITUR pass. In a cold medium-scale pass over the five analysis
// figures, extracting the 24 miss traces (event generation included)
// takes about 83% of the CPU time and building the 48 grammars about
// 11% (CPU profile, 2-vCPU Xeon, Go 1.24).

// grammarEntry is one memoized per-core grammar snapshot set.
type grammarEntry struct {
	done  chan struct{}
	snaps []*sequitur.Snapshot
}

// Grammar observer event kinds (see Observer).
const (
	EventGrammarStart = "grammar-start"
	EventGrammarDone  = "grammar-done"
)

// grammarKey extends the trace key with the analysis variant: the
// fig5/fig6 pipelines drop sequential-bias misses before building the
// grammar, which yields a different grammar over the same traces.
func grammarKey(t TraceJob, dropSequential bool) string {
	return fmt.Sprintf("%s|grammar|noseq=%t", t.Key(), dropSequential)
}

// GrammarBuilds returns how many grammar snapshot sets were actually
// constructed — requests minus memo and store hits.
func (e *Engine) GrammarBuilds() uint64 { return e.grammarBuilds.Load() }

// Grammars returns one SEQUITUR grammar snapshot per core over the
// workload's miss traces (optionally with sequential-bias misses
// dropped first, the fig5/fig6 variant), building each core's grammar
// concurrently under the worker bound and memoizing the set in-process
// and in the persistent store. Callers must treat the snapshots as
// read-only; they are shared. A cancelled ctx returns nil and leaves
// the key recomputable.
func (e *Engine) Grammars(ctx context.Context, t TraceJob, dropSequential bool) []*sequitur.Snapshot {
	if ctx.Err() != nil {
		return nil
	}
	key := grammarKey(t, dropSequential)
	e.mu.Lock()
	if en, ok := e.grammars[key]; ok {
		e.mu.Unlock()
		select {
		case <-en.done:
			return en.snaps
		case <-ctx.Done():
			return nil
		}
	}
	en := &grammarEntry{done: make(chan struct{})}
	e.grammars[key] = en
	e.mu.Unlock()

	abort := func() []*sequitur.Snapshot {
		e.mu.Lock()
		if cur, ok := e.grammars[key]; ok && cur == en {
			delete(e.grammars, key)
		}
		e.mu.Unlock()
		close(en.done)
		return nil
	}

	if e.store != nil {
		if snaps, ok := e.store.GetGrammars(key); ok && len(snaps) == t.Cores {
			e.storeHits.Add(1)
			en.snaps = snaps
			e.notify(EventStoreHit, key)
			close(en.done)
			return en.snaps
		}
	}

	// The traces come from the memoized tier below; a store hit there
	// still spares the simulation even when the grammar must be built.
	recs := e.ExtractTraces(ctx, t)
	if recs == nil || ctx.Err() != nil {
		return abort()
	}

	e.notify(EventGrammarStart, key)
	snaps := make([]*sequitur.Snapshot, len(recs))
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case e.sem <- struct{}{}:
			case <-ctx.Done():
				cancelled.Store(true)
				return
			}
			defer func() { <-e.sem }()
			rc := recs[i]
			if dropSequential {
				rc = trace.DropSequential(rc)
			}
			g := sequitur.New(len(rc))
			for _, r := range rc {
				g.Append(uint64(r.Block))
			}
			snaps[i] = g.Snapshot()
		}(i)
	}
	wg.Wait()
	if cancelled.Load() || ctx.Err() != nil {
		// A partial set must not be memoized or stored.
		return abort()
	}
	e.grammarBuilds.Add(1)
	en.snaps = snaps
	if e.store != nil {
		e.store.PutGrammars(key, snaps)
	}
	e.notify(EventGrammarDone, key)
	close(en.done)
	return en.snaps
}
