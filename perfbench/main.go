package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything a run leaves behind, relative to the
// checkout root the benchmark runs from.
const buildDir = ".bench_build"

// specFile is the benchmark definition: metric names, units and bounds.
const specFile = "BENCHMARK.json"

// runsDir holds the run directories that set-up makes.
var runsDir = filepath.Join(buildDir, "runs")

// setupEvery spaces the run's set-up samples: before an op, the run sets
// up (and closes) one more environment when this long has passed since
// the last one, so setup_s is the median of samples spread over the
// whole run, as every other time metric is.
const setupEvery = 250 * time.Millisecond

// runTimeout bounds one run, traced runs' untraced twin included, so a
// hang still exits (non-zero) in time.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload: suite, point or analysis")
		seed    = fl.Int64("seed", 1, "seed that draws the workload's inputs")
		seconds = fl.Int("seconds", 30, "how long one run measures")
		traceOn = fl.Int("trace", 0, "1 = traced run: print the per-layer ledger instead of the end-to-end metrics")
		results = fl.String("results", filepath.Join(buildDir, "results.jsonl"), "file each run appends its result record to (empty = none)")
		record  = fl.Bool("record-references", false, "re-record "+referencesFile+" through the serial path and exit")
		compare = fl.Bool("compare", false, "summarize one result set, or compare two: -compare old.jsonl [new.jsonl]")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var err error
	switch {
	case *compare:
		err = compareMode(stdout, fl.Args())
	case *record:
		err = recordReferences(context.Background(), os.Stderr)
	default:
		err = runMode(ctx, stdout, *name, *seed, *seconds, *traceOn == 1, *results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(specFile)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", specFile, err)
	}
	return s, nil
}

// host is the fingerprint every result record carries.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// commit names the code measured: the git revision the binary was built
// from, or else a digest of the checkout's Go sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	// The digest is best-effort: an unreadable file only leaves it out.
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (path == buildDir || path == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// resultRecord is what one run appends to the result set.
type resultRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   int                `json:"seconds"`
	Commit    string             `json:"commit"`
	Host      host               `json:"host"`
	Time      string             `json:"time"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMode(ctx context.Context, stdout io.Writer, name string, seed int64, seconds int, traced bool, results string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	var sweep *sweepWorkload
	for i := range sweepWorkloads {
		if sweepWorkloads[i].name == name {
			sweep = &sweepWorkloads[i]
		}
	}
	if sweep == nil && name != "point" {
		return fmt.Errorf("unknown workload %q (want suite, point or analysis)", name)
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}

	// The tracing overhead is this run's cold wall-clock minus that of an
	// untraced run of the same inputs, made first in its own process.
	var untracedWall float64
	if traced {
		if untracedWall, err = untracedTwin(ctx, name, seed, seconds); err != nil {
			return fmt.Errorf("untraced twin run: %w", err)
		}
	}

	t := time.Now()
	e, err := newEnv(ctx, runsDir)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer e.close()

	var report bytes.Buffer
	b := &bench{
		ctx:        ctx,
		rng:        rand.New(rand.NewSource(seed)),
		seconds:    time.Duration(seconds) * time.Second,
		env:        e,
		chk:        &checker{refs: refs, log: &report},
		metrics:    map[string]float64{},
		samples:    map[string]int{},
		setupTimes: []float64{time.Since(t).Seconds()},
		lastSetup:  time.Now(),
	}
	if traced {
		b.tr = newTracer()
	}
	b.start = time.Now()
	if sweep != nil {
		b.runSweep(*sweep)
	} else {
		b.runPoint()
	}
	if ctx.Err() != nil {
		return fmt.Errorf("run did not finish in %s", runTimeout)
	}
	if b.setupErr != nil {
		return fmt.Errorf("set-up: %w", b.setupErr)
	}
	b.metrics["setup_s"], b.samples["setup_s"] = median(b.setupTimes), len(b.setupTimes)

	mode := "untraced"
	if traced {
		mode = "traced"
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %s, engine parallelism %d\n", name, seed, mode, parallelism)
	_, _ = io.Copy(stdout, &report) // a failed write to stdout shows in the missing result line
	failedFrac := float64(b.chk.failed) / float64(max(b.chk.attempted, 1))
	fmt.Fprintf(stdout, "ops: %d attempted, %d failed (failed_frac %.4f)\n", b.chk.attempted, b.chk.failed, failedFrac)
	if wall := b.metrics["wall_s"]; wall > 0 && b.simInstrs > 0 {
		b.metrics["sim_minstr_per_s"] = float64(b.simInstrs) / 1e6 / wall
	}
	b.metrics["failed_frac"] = failedFrac
	for _, k := range sortedKeys(b.metrics) {
		n := ""
		if s, ok := b.samples[k]; ok {
			n = fmt.Sprintf("  (median of %d)", s)
		}
		fmt.Fprintf(stdout, "  %-18s %.6g%s\n", k, b.metrics[k], n)
	}

	want, values := spec.EndToEnd, b.metrics
	if traced {
		values = b.ledger(untracedWall)
		b.tr.printSelfTimes(stdout, name)
		fmt.Fprintf(stdout, "tracing overhead: %+.3f s (traced wall_s %.3f − untraced %.3f)\n",
			values["tracing.overhead_s"], b.metrics["wall_s"], untracedWall)
		spanFile := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.json", name, seed))
		if err := b.tr.writeSpans(spanFile); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.tr.spans), spanFile)
		want = spec.PerLayer
	}
	out := result{Correct: b.chk.failed == 0 && b.chk.attempted > 0, Attempted: b.chk.attempted,
		Failed: b.chk.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s lists metric %q, which this run does not measure", specFile, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}

	rec := resultRecord{Workload: name, Seed: seed, Traced: traced, Seconds: seconds, Commit: commit(),
		Host: fingerprint(), Time: time.Now().UTC().Format(time.RFC3339), Correct: out.Correct,
		Attempted: out.Attempted, Failed: out.Failed, Metrics: values, Samples: b.samples}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "record %s\n", recJSON)
	if results != "" {
		if err := appendLine(results, recJSON); err != nil {
			return err
		}
	}
	last, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return nil
}

// untracedTwin runs the same workload and seed untraced in a child
// process and returns its wall_s.
func untracedTwin(ctx context.Context, name string, seed int64, seconds int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0", "-results", "")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return 0, err
	}
	if !r.Correct {
		return 0, fmt.Errorf("untraced run failed %d of %d ops", r.Failed, r.Attempted)
	}
	return r.Metrics["wall_s"].Value, nil
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

func appendLine(path string, line []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
