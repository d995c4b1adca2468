package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"tifs/internal/engine"
	"tifs/internal/experiments"
	"tifs/internal/remotestore"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/sweepd"
	"tifs/internal/workload"
)

// parallelism is the engine width of every phase: the benchmark host's
// nproc, fixed so that results do not follow GOMAXPROCS.
const parallelism = 2

// sweepWorkload is a workload that renders a set of experiments: a cold
// pass into a fresh store, then warm and submit passes over it.
type sweepWorkload struct {
	name  string
	scale workload.Scale
	ids   []string
	// A run is this many rounds, each a cold pass into a fresh store and
	// then warm and submit ops over it until the round's share of the run
	// is up (at least roundOps of each). A shared host's speed can swing
	// by 10-20% within seconds, so spreading every kind of op over the
	// whole run and taking medians keeps figures steadier.
	rounds, roundOps int
}

var sweepWorkloads = []sweepWorkload{
	{name: "suite", scale: workload.ScaleSmall, ids: experiments.IDs(), rounds: 2, roundOps: 15},
	{name: "analysis", scale: workload.ScaleMedium, ids: []string{"fig3", "fig5", "fig6", "fig10", "fig11"}, rounds: 3, roundOps: 2},
}

// The point universe: 6 workloads × these mechanisms, each run with its
// next-line baseline at medium scale on 4 cores, as tifssim does.
var pointMechanisms = []string{"fdip", "discontinuity", "tifs-unbounded", "tifs-dedicated", "tifs-virtualized", "perfect"}

const (
	pointScale  = workload.ScaleMedium
	pointCores  = 4
	pointBlocks = 2 // the cold sequence is this many blocks of six points
	// pointSliceBatches is the least number of warm and submit batches
	// that follow each cold point. The batches after a point run until
	// its share of the run is up, so that these ops, which take about a
	// millisecond or less, are sampled across the whole run rather than in
	// the seconds the cold sequence leaves at its end.
	pointSliceBatches = 2
	// pointBatch is how many ops, back to back, one warm or submit sample
	// times; warm_s and submit_s are the median sample's mean per op. A
	// garbage collection can double the op it falls in, so a sample of
	// single ops would turn on how many of them a collection hits.
	pointBatch = 6
)

type point struct{ workload, mechanism string }

func (p point) refID() string { return "point/" + p.workload + "/" + p.mechanism }

// jobs returns the mechanism's simulation and its next-line baseline.
func (p point) jobs() []engine.Job {
	spec, _ := workload.ByName(p.workload)
	mech, _ := sim.MechanismByName(p.mechanism)
	cfg := sim.Config{Cores: pointCores, Mechanism: mech}
	base := cfg
	base.Mechanism = sim.Baseline()
	return []engine.Job{
		{Spec: spec, Scale: pointScale, Config: cfg},
		{Spec: spec, Scale: pointScale, Config: base},
	}
}

// pointSequence draws the cold point sequence: pointBlocks blocks, each
// pairing every workload with a different mechanism, in shuffled order.
// Every block costs about the same, so the sequence's wall-clock does not
// swing with the seed.
func pointSequence(rng *rand.Rand) []point {
	names := workload.Names()
	var seq []point
	for b := 0; b < pointBlocks; b++ {
		mech := rng.Perm(len(pointMechanisms))
		block := make([]point, len(names))
		for i, w := range names {
			block[i] = point{workload: w, mechanism: pointMechanisms[mech[i]]}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		seq = append(seq, block...)
	}
	return seq
}

// env is what set-up makes: a run directory and an in-process service
// listener with one job client. Each submit op mounts a fresh service.
type env struct {
	dir     string
	srv     *http.Server
	served  chan struct{}
	handler atomic.Value // http.Handler of the current mount
	client  *sweepd.Client
	http    *http.Client
}

func (e *env) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// mount serves svc (and, as tifsserve does, the blob protocol of st) on
// the listener.
func (e *env) mount(svc *sweepd.Service, st *store.Store, dir string) {
	mux := http.NewServeMux()
	if st != nil {
		mux.Handle("/", remotestore.NewServer(st, dir).Handler())
	}
	svc.Register(mux)
	e.handler.Store(http.Handler(mux))
}

// newEnv sets up one run environment and proves it serves by one round
// trip to a freshly mounted service.
func newEnv(ctx context.Context, root string) (*env, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	e := &env{dir: dir, served: make(chan struct{})}
	e.srv = &http.Server{Handler: e, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln)
	}()
	// One client and one connection for the whole run.
	e.http = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	base := "http://" + ln.Addr().String()
	e.client = sweepd.NewClient(base, e.http)
	e.client.Name = "perfbench"

	svc := sweepd.New(sweepd.Config{Parallelism: parallelism})
	defer svc.Close()
	e.mount(svc, nil, "")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/probe", nil)
	if err != nil {
		e.close()
		return nil, err
	}
	resp, err := e.http.Do(req)
	if err != nil {
		e.close()
		return nil, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		e.close()
		return nil, fmt.Errorf("probe of a fresh service answered %s, want 404", resp.Status)
	}
	return e, nil
}

func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err != nil {
		e.srv.Close()
	}
	<-e.served
	e.http.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// bench is one run of one workload.
type bench struct {
	ctx     context.Context
	rng     *rand.Rand
	seconds time.Duration
	start   time.Time // start of measurement, after set-up
	env     *env
	chk     *checker
	tr      *tracer // nil in untraced runs

	// Measured values, by end-to-end metric name, and sample counts.
	metrics map[string]float64
	samples map[string]int

	setupTimes []float64 // set-up samples, in seconds
	lastSetup  time.Time
	setupErr   error

	// Loop-phase tallies for the per-layer ledger and the sims checks.
	warmOps, submitOps     int
	warmSims, submitSims   uint64
	warmStoreHits          uint64
	submitEvents, outBytes int
	simInstrs              uint64 // simulated instructions of one cold pass
	coldPasses             int    // cold passes the ledger's cold totals span
	storeDir               string
}

// backend wraps st in the tracing store in traced runs.
func (b *bench) backend(st *store.Store) store.Backend {
	if b.tr != nil {
		return tracedStore{Backend: st, t: b.tr}
	}
	return st
}

func (b *bench) beginOp(phase, op string) int {
	if b.tr == nil {
		return -1
	}
	return b.tr.beginOp(phase, op)
}

func (b *bench) endOp(i int) {
	if b.tr != nil {
		b.tr.endOp(i)
	}
}

// openStore opens the store, as a span in traced runs.
func (b *bench) openStore(dir string) (*store.Store, error) {
	if b.tr == nil {
		return store.Open(dir)
	}
	i := b.tr.begin(layerStore, "store.open", "")
	st, err := store.Open(dir)
	b.tr.end(i)
	return st, err
}

// setUp is called before every op. When setupEvery has passed since the
// last set-up sample, it sets up one more run environment, as the run's
// own set-up did, times that, and closes it again. A failed set-up fails
// the run.
func (b *bench) setUp() {
	if b.setupErr != nil || time.Since(b.lastSetup) < setupEvery {
		return
	}
	t := time.Now()
	e, err := newEnv(b.ctx, runsDir)
	if err != nil {
		b.setupErr = err
		return
	}
	b.setupTimes = append(b.setupTimes, time.Since(t).Seconds())
	e.close()
	b.lastSetup = time.Now()
}

// recovered turns a panic in the calling op into its error.
func recovered(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}

// sweepPass renders ids on a fresh engine over the store in dir: the cold
// pass when the store is empty, a warm pass when it is full.
func (b *bench) sweepPass(w sweepWorkload, ids []string, dir string) (out string, sims uint64, err error) {
	defer recovered(&err)
	st, err := b.openStore(dir)
	if err != nil {
		return "", 0, err
	}
	defer st.Close()
	eng := engine.New(parallelism)
	defer eng.Close()
	eng.SetBackend(b.backend(st))
	var progress experiments.Progress
	if b.tr != nil {
		eng.SetObserver(b.tr.observe)
		progress = b.tr.progress
	}
	o := experiments.Options{Context: b.ctx, Scale: w.scale, Engine: eng}
	out, err = experiments.RunSelected(ids, o, progress)
	b.warmStoreHits += eng.StoreHits()
	return out, eng.SimulationsRun(), err
}

// submit runs one warm op as a job on a fresh sweep service over the
// store in dir, mounted as tifsserve mounts it.
func (b *bench) submit(req sweepd.JobRequest, dir string) (out string, sims uint64, err error) {
	defer recovered(&err)
	st, err := b.openStore(dir)
	if err != nil {
		return "", 0, err
	}
	defer st.Close()
	svc := sweepd.New(sweepd.Config{Parallelism: parallelism, Backend: b.backend(st)})
	defer svc.Close()
	b.env.mount(svc, st, dir)

	// Client-side spans: the submit round trip, the wait until the job
	// starts, its run (with the experiments its events announce), and
	// the final status fetch.
	queue, run, status := -1, -1, -1
	var sp int
	if b.tr != nil {
		sp = b.tr.begin(layerSweepd, "sweepd.submit", "")
	}
	st0, err := b.env.client.Submit(b.ctx, req)
	if b.tr != nil {
		b.tr.end(sp)
	}
	if err != nil {
		return "", 0, err
	}
	if b.tr != nil {
		queue = b.tr.begin(layerSweepd, "sweepd.queue", "")
	}
	events := 0
	final, err := b.env.client.Watch(b.ctx, st0.ID, func(ev sweepd.Event) {
		events++
		if b.tr == nil {
			return
		}
		switch ev.Kind {
		case sweepd.EvStart:
			b.tr.end(queue)
			queue = -1
			run = b.tr.begin(layerSweepd, "sweepd.run", "")
			b.tr.enter(run)
		case sweepd.EvExperimentStart:
			b.tr.enter(b.tr.begin(layerExperiments, "experiments/"+ev.Phase, ""))
		case sweepd.EvExperimentDone:
			b.tr.leaveCurrent()
		case sweepd.EvDone, sweepd.EvFailed:
			if run >= 0 {
				b.tr.leave(run)
				run = -1
			}
			status = b.tr.begin(layerSweepd, "sweepd.status", "")
		}
	})
	for _, i := range []int{queue, run, status} {
		if i >= 0 {
			b.tr.end(i)
		}
	}
	b.submitEvents += events
	b.outBytes += len(final.Output)
	switch {
	case err != nil:
		return "", 0, err
	case final.State != sweepd.StateDone:
		return "", 0, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return final.Output, final.SimsRun, nil
}

// errSims fails a warm or submit op that simulated: it must be served
// from the store alone.
func errSims(n uint64) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("ran %d simulations; a warm op must run none", n)
}

// timed runs the cold op f and returns its wall-clock in seconds and the
// peak RSS it reached, in MB. It first collects the garbage earlier ops
// left and returns the freed memory to the operating system, outside the
// timing, so that each cold op starts from the heap and resident set it
// would have in a process of its own.
func timed(f func()) (seconds, peakMB float64) {
	debug.FreeOSMemory()
	// Reset the kernel's peak-RSS mark; where that is not allowed the
	// peak is the process's so far.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	t := time.Now()
	f()
	seconds = time.Since(t).Seconds()
	return seconds, peakRSSMB()
}

// elapsed runs the warm or submit op f and returns its wall-clock in
// seconds. These ops run back to back on the heap earlier ops left, as in
// a long-running service: returning memory to the operating system
// before each one would make it fault its pages back in, which on a
// shared host costs a varying part of its time.
func elapsed(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// runSweep runs the suite or analysis workload.
func (b *bench) runSweep(w sweepWorkload) {
	ids := append([]string(nil), w.ids...)
	b.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var dir string
	var coldSecs map[string]string
	var walls, peaks, warm, sub []float64
	b.coldPasses = w.rounds
	for k := 0; k < w.rounds; k++ {
		dir = filepath.Join(b.env.dir, fmt.Sprintf("store%d", k))
		name := fmt.Sprintf("cold#%d", k)
		var out string
		var err error
		b.setUp()
		op := b.beginOp(phaseCold, name)
		wall, peak := timed(func() { out, _, err = b.sweepPass(w, ids, dir) })
		b.endOp(op)
		walls, peaks = append(walls, wall), append(peaks, peak)
		secs := b.chk.sections(w.name+"/"+name, w.name, ids, out, err, coldSecs)
		if coldSecs == nil {
			coldSecs = secs
		}

		roundEnd := b.seconds * time.Duration(k+1) / time.Duration(w.rounds)
		for n := 0; b.ctx.Err() == nil && (n < w.roundOps || time.Since(b.start) < roundEnd); n++ {
			name := fmt.Sprintf("warm#%d", len(warm))
			var sims uint64
			b.setUp()
			op := b.beginOp(phaseWarm, name)
			dur := elapsed(func() { out, sims, err = b.sweepPass(w, ids, dir) })
			warm = append(warm, dur)
			b.endOp(op)
			b.warmOps++
			b.warmSims += sims
			if err == nil {
				err = errSims(sims)
			}
			b.chk.sections(w.name+"/"+name, w.name, ids, out, err, coldSecs)

			name = fmt.Sprintf("submit#%d", len(sub))
			req := sweepd.JobRequest{Experiments: ids, Scale: w.scale.String()}
			b.setUp()
			op = b.beginOp(phaseSubmit, name)
			dur = elapsed(func() { out, sims, err = b.submit(req, dir) })
			sub = append(sub, dur)
			b.endOp(op)
			b.submitOps++
			b.submitSims += sims
			if err == nil {
				err = errSims(sims)
			}
			b.chk.op(w.name+"/"+name, err)
			b.chk.sections(w.name+"/"+name, w.name, ids, out, err, coldSecs)
		}
	}
	b.storeDir = dir
	b.metrics["wall_s"], b.samples["wall_s"] = median(walls), len(walls)
	// Later passes find the first one's program images cached in the
	// process; only the first has the memory of a fresh process.
	b.metrics["peak_rss_mb"] = peaks[0]
	b.metrics["warm_s"], b.samples["warm_s"] = median(warm), len(warm)
	b.metrics["submit_s"], b.samples["submit_s"] = median(sub), len(sub)

	// Simulated instructions of every simulation the cold pass ran, read
	// back from the store (outside every timed op).
	jobs, _, err := experiments.Grid(ids, experiments.Options{Scale: w.scale})
	if err == nil {
		if st, err := store.Open(dir); err == nil {
			for _, j := range jobs {
				if r, ok := st.GetResult(j.Key()); ok {
					b.simInstrs += r.TotalInstrs
				}
			}
			st.Close()
		}
	}
}

// coldPoint is one tifssim invocation without -cache-dir: the mechanism
// and its baseline as one batch on a fresh engine.
func (b *bench) coldPoint(p point) (out string, res []sim.Result, err error) {
	defer recovered(&err)
	eng := engine.New(parallelism)
	defer eng.Close()
	if b.tr != nil {
		eng.SetObserver(b.tr.observe)
	}
	res = eng.RunAll(b.ctx, p.jobs())
	if b.ctx.Err() != nil {
		return "", nil, b.ctx.Err()
	}
	if b.tr != nil {
		b.tr.addResults(res...)
	}
	return p.report(res), res, nil
}

// warmPoint is the same invocation with -cache-dir over a store that
// holds both results.
func (b *bench) warmPoint(p point, dir string) (out string, sims uint64, err error) {
	defer recovered(&err)
	st, err := b.openStore(dir)
	if err != nil {
		return "", 0, err
	}
	defer st.Close()
	eng := engine.New(parallelism)
	defer eng.Close()
	eng.SetBackend(b.backend(st))
	res := eng.RunAll(b.ctx, p.jobs())
	b.warmStoreHits += eng.StoreHits()
	if b.ctx.Err() != nil {
		return "", 0, b.ctx.Err()
	}
	return p.report(res), eng.SimulationsRun(), nil
}

// runPoint runs the point workload. After each cold point, what tifssim
// -cache-dir would have written goes to the store, and warm and submit
// ops over the points done so far follow until the point's share of the
// run is up.
func (b *bench) runPoint() {
	seq := pointSequence(b.rng)
	cold := make([]string, len(seq))
	dir := filepath.Join(b.env.dir, "point-store")
	b.storeDir = dir
	b.coldPasses = 1
	var lat, peaks, warm, sub []float64
	loop := 0
	for i, p := range seq {
		name := fmt.Sprintf("point/cold#%d/%s/%s", i, p.workload, p.mechanism)
		var res []sim.Result
		var err error
		b.setUp()
		op := b.beginOp(phaseCold, fmt.Sprintf("point#%d", i))
		dur, peak := timed(func() { cold[i], res, err = b.coldPoint(p) })
		lat = append(lat, dur)
		peaks = append(peaks, peak)
		b.endOp(op)
		b.chk.verify(name, p.refID(), cold[i], nil, err)
		for _, x := range res {
			b.simInstrs += x.TotalInstrs
		}

		if res != nil {
			op = b.beginOp(phaseFill, fmt.Sprintf("fill#%d", i))
			if err := b.fillPointStore(dir, p, res); err != nil {
				b.chk.op(fmt.Sprintf("point/fill#%d", i), err)
			}
			b.endOp(op)
		}

		sliceEnd := b.seconds * time.Duration(i+1) / time.Duration(len(seq))
		for n := 0; b.ctx.Err() == nil && (n < pointSliceBatches || time.Since(b.start) < sliceEnd); n++ {
			batch := make([]int, pointBatch)
			for j := range batch {
				batch[j] = loop % (i + 1)
				loop++
			}
			b.setUp()
			warm = append(warm, b.pointBatch(phaseWarm, seq, cold, batch, func(p point) (string, uint64, error) {
				return b.warmPoint(p, dir)
			}))
			b.setUp()
			sub = append(sub, b.pointBatch(phaseSubmit, seq, cold, batch, func(p point) (string, uint64, error) {
				return b.submit(sweepd.JobRequest{Workload: p.workload, Mechanism: p.mechanism, Baseline: true,
					Scale: pointScale.String()}, dir)
			}))
		}
	}
	// The sequence's wall-clock, without the collections before points
	// and the ops in between.
	for _, l := range lat {
		b.metrics["wall_s"] += l
	}
	b.metrics["latency_p50_s"], b.samples["latency_p50_s"] = median(lat), len(lat)
	b.metrics["peak_rss_mb"], b.samples["peak_rss_mb"] = median(peaks), len(peaks)
	b.metrics["warm_s"], b.samples["warm_s"] = median(warm), len(warm)
	b.metrics["submit_s"], b.samples["submit_s"] = median(sub), len(sub)
}

// pointBatch runs one warm or submit op on each point seq[k] of batch,
// back to back, and returns their mean time. The outputs are checked
// after the timing.
func (b *bench) pointBatch(phase string, seq []point, cold []string, batch []int, do func(point) (string, uint64, error)) float64 {
	outs := make([]string, len(batch))
	sims := make([]uint64, len(batch))
	errs := make([]error, len(batch))
	ops := &b.warmOps
	if phase == phaseSubmit {
		ops = &b.submitOps
	}
	mean := elapsed(func() {
		for j, k := range batch {
			op := b.beginOp(phase, fmt.Sprintf("%s-point#%d", phase, *ops+j))
			outs[j], sims[j], errs[j] = do(seq[k])
			b.endOp(op)
		}
	}) / float64(len(batch))
	for j, k := range batch {
		p, err := seq[k], errs[j]
		if err == nil {
			err = errSims(sims[j])
		}
		if phase == phaseSubmit {
			b.submitSims += sims[j]
		} else {
			b.warmSims += sims[j]
		}
		b.chk.verify(fmt.Sprintf("point/%s#%d/%s/%s", phase, *ops, p.workload, p.mechanism), p.refID(), outs[j], &cold[k], err)
		*ops++
	}
	return mean
}

// fillPointStore writes both results of point p to the store in dir.
func (b *bench) fillPointStore(dir string, p point, res []sim.Result) error {
	st, err := b.openStore(dir)
	if err != nil {
		return err
	}
	bk := b.backend(st)
	for j, job := range p.jobs() {
		bk.PutResult(job.Key(), res[j])
	}
	return st.Close()
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
