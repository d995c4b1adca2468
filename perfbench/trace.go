package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tifs/internal/engine"
	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
)

// Layers a span can belong to. The benchmark records spans only at the
// boundaries of the program's public entry points; nothing inside the
// program is instrumented.
const (
	layerOp          = "op" // one pass, job or point as the benchmark issues it
	layerExperiments = "experiments"
	layerSim         = "sim"
	layerTrace       = "trace"
	layerSequitur    = "sequitur"
	layerStore       = "store"
	layerSweepd      = "sweepd"
)

// Phases of a run.
const (
	phaseCold   = "cold"
	phaseFill   = "fill"
	phaseWarm   = "warm"
	phaseSubmit = "submit"
)

// span is one timed interval. Op names the pass, job or point it belongs
// to; Parent is the index of the enclosing span (-1 for an op).
type span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Phase  string        `json:"phase"`
	Op     string        `json:"op"`
	Parent int           `json:"parent"`
	Key    string        `json:"key,omitempty"`
	Hit    bool          `json:"hit,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a run's spans in memory. It is safe for concurrent use:
// engine observer callbacks and store calls arrive on worker goroutines.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	open  map[string]int // engine key -> its open sim/trace/grammar span
	cur   int            // enclosing span of new spans, -1 outside an op
	phase string
	op    string
	// results holds every simulation the cold phase ran, for the
	// modelled-component counts.
	results []sim.Result
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[string]int{}, cur: -1}
}

// begin opens a span under the current enclosing span, or under the open
// engine span of key when there is one (a store put inside the
// simulation that produced it).
func (t *tracer) begin(layer, name, key string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := t.cur
	if p, ok := t.open[key]; ok && key != "" {
		parent = p
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Phase: t.phase, Op: t.op,
		Parent: parent, Key: key, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// beginOp opens the root span of one pass, job or point; new spans nest
// under it until endOp.
func (t *tracer) beginOp(phase, op string) int {
	t.mu.Lock()
	t.phase, t.op, t.cur = phase, op, -1
	t.mu.Unlock()
	i := t.begin(layerOp, op, "")
	t.enter(i)
	return i
}

func (t *tracer) endOp(i int) {
	t.end(i)
	t.enter(-1)
}

// enter makes span i the parent of new spans.
func (t *tracer) enter(i int) {
	t.mu.Lock()
	t.cur = i
	t.mu.Unlock()
}

// leave ends span i and makes its parent the enclosing span again.
func (t *tracer) leave(i int) {
	t.end(i)
	t.mu.Lock()
	t.cur = t.spans[i].Parent
	t.mu.Unlock()
}

// leaveCurrent ends the current enclosing span.
func (t *tracer) leaveCurrent() {
	t.mu.Lock()
	cur := t.cur
	t.mu.Unlock()
	if cur >= 0 {
		t.leave(cur)
	}
}

// progress is the experiments.RunSelected callback of a traced pass.
func (t *tracer) progress(id string, done bool) {
	if done {
		t.leaveCurrent()
		return
	}
	t.enter(t.begin(layerExperiments, "experiments/"+id, ""))
}

// observe is the engine observer of a traced pass: simulations, trace
// extractions and grammar builds become spans keyed by their engine key.
func (t *tracer) observe(kind, key string) {
	var layer, name string
	switch kind {
	case engine.EventSimStart, engine.EventSimDone:
		layer, name = layerSim, "sim/"+mechanismKind(key)
	case engine.EventTraceStart, engine.EventTraceDone:
		layer, name = layerTrace, "trace"
	case engine.EventGrammarStart, engine.EventGrammarDone:
		layer, name = layerSequitur, "sequitur"
	default:
		return
	}
	switch kind {
	case engine.EventSimStart, engine.EventTraceStart, engine.EventGrammarStart:
		i := t.begin(layer, name, key)
		t.mu.Lock()
		t.open[key] = i
		t.mu.Unlock()
	default:
		t.mu.Lock()
		i, ok := t.open[key]
		delete(t.open, key)
		t.mu.Unlock()
		if ok {
			t.end(i)
		}
	}
}

// addResults keeps simulations the cold phase ran.
func (t *tracer) addResults(rs ...sim.Result) {
	t.mu.Lock()
	if t.phase == phaseCold {
		t.results = append(t.results, rs...)
	}
	t.mu.Unlock()
}

// mechanismKind extracts the mechanism kind from an engine job key.
func mechanismKind(key string) string {
	const marker = "Mechanism:{Kind:"
	i := strings.Index(key, marker)
	if i < 0 {
		return "unknown"
	}
	rest := key[i+len(marker):]
	if j := strings.IndexAny(rest, " }"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// traceEvents returns cores × events of a trace-extraction key
// ("<spec>|<scale>|<cores>|<events>").
func traceEvents(key string) uint64 {
	f := strings.Split(key, "|")
	if len(f) < 4 {
		return 0
	}
	cores, _ := strconv.ParseUint(f[len(f)-2], 10, 64)
	events, _ := strconv.ParseUint(f[len(f)-1], 10, 64)
	return cores * events
}

// tracedStore records a span around every store read and write.
type tracedStore struct {
	store.Backend
	t *tracer
}

func (s tracedStore) get(key string, ok func() bool) {
	i := s.t.begin(layerStore, "store.get", key)
	hit := ok()
	s.t.end(i)
	s.t.mu.Lock()
	s.t.spans[i].Hit = hit
	s.t.mu.Unlock()
}

func (s tracedStore) put(key string, do func()) {
	i := s.t.begin(layerStore, "store.put", key)
	do()
	s.t.end(i)
}

func (s tracedStore) GetResult(key string) (r sim.Result, ok bool) {
	s.get(key, func() bool { r, ok = s.Backend.GetResult(key); return ok })
	return r, ok
}

func (s tracedStore) PutResult(key string, r sim.Result) {
	s.t.addResults(r)
	s.put(key, func() { s.Backend.PutResult(key, r) })
}

func (s tracedStore) GetMissTraces(key string) (recs [][]trace.MissRecord, ok bool) {
	s.get(key, func() bool { recs, ok = s.Backend.GetMissTraces(key); return ok })
	return recs, ok
}

func (s tracedStore) PutMissTraces(key string, recs [][]trace.MissRecord) {
	s.put(key, func() { s.Backend.PutMissTraces(key, recs) })
}

func (s tracedStore) GetGrammars(key string) (snaps []*sequitur.Snapshot, ok bool) {
	s.get(key, func() bool { snaps, ok = s.Backend.GetGrammars(key); return ok })
	return snaps, ok
}

func (s tracedStore) PutGrammars(key string, snaps []*sequitur.Snapshot) {
	s.put(key, func() { s.Backend.PutGrammars(key, snaps) })
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes the span file.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSelfTimes prints the per-layer self-time table of each phase.
func (t *tracer) printSelfTimes(w io.Writer, workloadName string) {
	self := selfTimes(t.spans)
	type cell struct {
		self  time.Duration
		spans int
	}
	table := map[[2]string]*cell{}
	phaseTotal := map[string]time.Duration{}
	for i, s := range t.spans {
		k := [2]string{s.Phase, s.Layer}
		if table[k] == nil {
			table[k] = &cell{}
		}
		table[k].self += self[i]
		table[k].spans++
		phaseTotal[s.Phase] += self[i]
	}
	keys := make([][2]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	order := map[string]int{phaseCold: 0, phaseFill: 1, phaseWarm: 2, phaseSubmit: 3}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return order[keys[a][0]] < order[keys[b][0]]
		}
		return table[keys[a]].self > table[keys[b]].self
	})
	fmt.Fprintf(w, "per-layer self time (%s, host time):\n", workloadName)
	fmt.Fprintf(w, "  %-7s %-12s %12s %7s %7s\n", "phase", "layer", "self_s", "share", "spans")
	for _, k := range keys {
		c := table[k]
		share := 0.0
		if tot := phaseTotal[k[0]]; tot > 0 {
			share = float64(c.self) / float64(tot)
		}
		fmt.Fprintf(w, "  %-7s %-12s %12.6f %6.1f%% %7d\n", k[0], k[1], c.self.Seconds(), 100*share, c.spans)
	}
}
