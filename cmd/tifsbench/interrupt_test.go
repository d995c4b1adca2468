package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// watchWriter buffers a process's stderr and closes started the first
// time marker appears, so the test can signal the process only once work
// is genuinely in flight. Attached via cmd.Stderr (not a pipe): Wait can
// never race the draining of trailing output.
type watchWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	started chan struct{}
	marker  string
	seen    bool
}

func (w *watchWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.seen && strings.Contains(w.buf.String(), w.marker) {
		w.seen = true
		close(w.started)
	}
	return len(p), nil
}

func (w *watchWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// buildBench compiles the tifsbench binary into a scratch dir once.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tifsbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestInterruptedShardWorkerReleasesLeaseAndMergeCompletes is the
// process-level acceptance test for graceful shutdown: SIGINT a shard
// worker mid-sweep, and it must exit 130 with the lease handed back
// (shard free, not wedged until TTL expiry); a fresh -merge over the
// same store then completes and renders output byte-identical to a
// storeless single-process run.
func TestInterruptedShardWorkerReleasesLeaseAndMergeCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and runs a full small-scale sweep")
	}
	bin := buildBench(t)
	cacheDir := filepath.Join(t.TempDir(), "store")
	base := []string{"-experiment", "all", "-scale", "small", "-events", "8000"}

	// Start shard worker 0/2 and interrupt it shortly after the sweep
	// grid is announced (work is in flight from that point on). The
	// whole shard takes about 0.3 s at this budget, so a longer
	// wait lets it finish before the signal lands.
	worker := exec.Command(bin, append(append([]string{}, base...), "-cache-dir", cacheDir, "-shard", "0/2")...)
	stderr := &watchWriter{started: make(chan struct{}), marker: "sweep grid:"}
	worker.Stderr = stderr
	if err := worker.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stderr.started:
	case <-time.After(30 * time.Second):
		worker.Process.Kill()
		t.Fatal("worker never announced the sweep grid")
	}
	time.Sleep(20 * time.Millisecond)
	if err := worker.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	werr := worker.Wait()

	code := worker.ProcessState.ExitCode()
	if code == 0 {
		// The whole shard finished before the signal landed; the graceful
		// path was never exercised. Rare on any real machine at this event
		// budget, but not a failure of the contract under test.
		t.Skip("worker finished before the interrupt landed")
	}
	if code != exitInterrupted {
		t.Fatalf("interrupted worker exited %d (err %v), want %d\nstderr:\n%s", code, werr, exitInterrupted, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted — lease released") {
		t.Fatalf("worker stderr missing the interrupted marker:\n%s", stderr.String())
	}

	// The lease went back to free on the way out: no TTL wait for the
	// next worker. (State "done" would mean the shard finished pre-signal,
	// which the exit code above already ruled out.)
	manifest, err := os.ReadFile(filepath.Join(cacheDir, "shards.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(manifest), "shard 0 free \"\" 0") {
		t.Fatalf("interrupted worker left its lease claimed:\n%s", manifest)
	}

	// A fresh merge completes the sweep (recomputing whatever the dead
	// worker never stored) with exit 0...
	merge := exec.Command(bin, append(append([]string{}, base...), "-cache-dir", cacheDir, "-merge")...)
	var mergeOut bytes.Buffer
	merge.Stdout = &mergeOut
	merge.Stderr = io.Discard
	if err := merge.Run(); err != nil {
		t.Fatalf("merge after interrupt: %v", err)
	}

	// ...and its tables are byte-identical to a direct storeless run.
	direct := exec.Command(bin, base...)
	var directOut bytes.Buffer
	direct.Stdout = &directOut
	direct.Stderr = io.Discard
	if err := direct.Run(); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if mergeOut.String() != directOut.String() {
		t.Fatal("merge output after an interrupted worker diverges from a direct run")
	}
}
