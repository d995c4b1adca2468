// Package cli holds what the tifsbench and tifssim commands share: the
// interrupt context and its exit status, the -store-gc and -cores
// handling, the close of a run's store, and submitting a run to the
// sweep service. Messages go to stderr under the command's name.
package cli

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"tifs"
	"tifs/internal/shard"
)

// ExitInterrupted is the exit status after a clean signal-triggered
// shutdown (128+SIGINT, the shell convention).
const ExitInterrupted = 130

// name prefixes every message, as the flag package's usage does.
var name = filepath.Base(os.Args[0])

// SignalContext returns a context cancelled on the first SIGINT or
// SIGTERM, letting in-flight work stop at a clean boundary (lease
// released, store flushed and closed). A second signal force-quits
// immediately for the case where the graceful path itself is stuck.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		fmt.Fprintf(os.Stderr, "%s: interrupt — stopping at the next clean boundary (send again to force quit)\n", name)
		cancel()
		<-ch
		fmt.Fprintf(os.Stderr, "%s: second interrupt — forcing quit\n", name)
		os.Exit(ExitInterrupted)
	}()
	return ctx, cancel
}

// Status converts a finished run's context into its exit status: any
// output printed after cancellation is partial and must not be mistaken
// for a completed run.
func Status(ctx context.Context) int {
	if ctx.Err() == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "%s: interrupted — output above is partial\n", name)
	return ExitInterrupted
}

// StoreGC runs -store-gc: it compacts the store directory (folds the
// per-writer segments into one log and reclaims dead bytes), prints
// what it reclaimed, and returns the exit status.
func StoreGC(dir string) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "-store-gc requires -cache-dir")
		return 2
	}
	st, err := tifs.CompactResultStore(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, st)
	return 0
}

// CoresOK reports whether n is a valid -cores value, printing the
// usage error when it is not.
func CoresOK(n int) bool {
	if n < 0 || n > tifs.MaxCores {
		fmt.Fprintf(os.Stderr, "-cores %d: want 0 (the default 4) to %d\n", n, tifs.MaxCores)
		return false
	}
	return true
}

// CloseStore ends a run's use of the store OpenStore gave it (nil: no
// store): it prints the store's stats line, closes it, and warns on a
// close error. The error is a warning, not a failure: the output printed
// is correct, and a later run recomputes whatever never reached the
// store — a remote write-back still queued, a local log file whose
// close reported an error.
func CloseStore(st tifs.StoreBackend) {
	switch s := st.(type) {
	case nil:
		return
	case *tifs.ResultStore:
		fmt.Fprintln(os.Stderr, s.Stats())
	case *tifs.RemoteStore:
		fmt.Fprintln(os.Stderr, s.Stats())
	}
	if err := st.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
}

// Submit ships a run to the sweep service at url: it posts req as a job,
// streams its progress to stderr, prints the server-rendered output —
// byte-identical to a local run — to stdout, and returns the exit
// status. A duplicate of in-flight work joins the existing job
// (reported on stderr) rather than re-running it. httpClient nil uses
// http.DefaultClient.
func Submit(ctx context.Context, url string, httpClient *http.Client, req tifs.JobRequest) int {
	c := tifs.DialJobService(url, httpClient)
	c.Name = shard.HostPID()
	st, err := tifs.SubmitJob(ctx, c, req)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: interrupted before the job was accepted\n", name)
			return ExitInterrupted
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	if st.Deduped {
		fmt.Fprintf(os.Stderr, "%s: job %s deduplicated — joined identical in-flight work (state %s)\n", name, st.ID, st.State)
	} else {
		fmt.Fprintf(os.Stderr, "%s: job %s accepted\n", name, st.ID)
	}
	final, err := tifs.WatchJob(ctx, c, st.ID, func(ev tifs.JobEvent) {
		switch ev.Kind {
		case "experiment-start":
			fmt.Fprintf(os.Stderr, "%s: job %s: experiment %s (sims so far: %d run, %d store hits)\n",
				name, st.ID, ev.Phase, ev.SimsRun, ev.StoreHits)
		case "failed":
			fmt.Fprintf(os.Stderr, "%s: job %s failed: %s\n", name, st.ID, ev.Msg)
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "%s: interrupted — the job keeps running server-side; resubmit the same flags to rejoin it\n", name)
			return ExitInterrupted
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	if final.State != tifs.JobDone {
		fmt.Fprintf(os.Stderr, "%s: job %s %s: %s\n", name, final.ID, final.State, final.Error)
		return 1
	}
	fmt.Print(final.Output)
	fmt.Fprintf(os.Stderr, "%s: job %s done — simulations run: %d, store hits: %d\n",
		name, final.ID, final.SimsRun, final.StoreHits)
	return Status(ctx)
}
