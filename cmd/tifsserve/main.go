// Command tifsserve serves a result-store directory over HTTP — and,
// by default, runs the sweep service on top of it, so clients can
// submit whole simulations and sweeps as jobs instead of shipping
// blobs.
//
// Usage:
//
//	tifsserve -dir /var/tifs/store -addr :8419
//
// Two protocols share the listener:
//
//   - the content-addressed blob + manifest API in internal/remotestore
//     (GET/PUT /v1/blob/{addr}, GET/PUT /v1/manifest with ETag
//     compare-and-swap, GET /v1/ping), used by sharded sweep workers;
//   - the job API in internal/sweepd (POST /v1/jobs, GET /v1/jobs/{id},
//     GET /v1/jobs/{id}/events), used by tifsbench/tifssim -submit:
//     jobs execute on an in-process engine backed by the same store, so
//     repeated work is a warm hit, identical concurrent submissions
//     single-flight onto one execution, and admission control (429 +
//     Retry-After) bounds the backlog. Disable with -jobs=false.
//
// The server is just another store writer — it can share the directory
// with local tifsbench runs, and -store-gc compaction applies as usual
// once it is stopped. Workers tolerate the server dying: their clients
// degrade to local computation and queue write-backs, so kill -9 and a
// restart lose no work and corrupt no results (the store's crash-safety
// and the client's reconcile-on-recovery both hold).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tifs/internal/remotestore"
	"tifs/internal/store"
	"tifs/internal/sweepd"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		dir         = flag.String("dir", "", "result store directory to serve (required; created if absent)")
		addr        = flag.String("addr", ":8419", "listen address")
		jobs        = flag.Bool("jobs", true, "run the sweep service (POST /v1/jobs) on this store")
		parallelism = flag.Int("parallelism", 0, "concurrent simulations and analysis workloads in the job engine (0 = GOMAXPROCS)")
		maxActive   = flag.Int("max-active-jobs", 0, "concurrently executing jobs (0 = default 2)")
		maxQueued   = flag.Int("max-queued-jobs", 0, "queued jobs across all clients before 429 (0 = default 64)")
		maxPerCli   = flag.Int("max-queued-per-client", 0, "queued jobs per client before 429 (0 = default 4)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tifsserve: -dir is required")
		return 2
	}

	st, err := store.Open(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tifsserve:", err)
		return 1
	}
	defer func() {
		fmt.Fprintln(os.Stderr, st.Stats())
		st.Close()
	}()

	// The job API takes the /v1/jobs routes; everything else falls
	// through to the blob/manifest protocol.
	mux := http.NewServeMux()
	mux.Handle("/", remotestore.NewServer(st, *dir).Handler())
	var svc *sweepd.Service
	if *jobs {
		svc = sweepd.New(sweepd.Config{
			Parallelism: *parallelism,
			Backend:     st,
			MaxActive:   *maxActive, MaxQueued: *maxQueued, MaxQueuedPerClient: *maxPerCli,
		})
		svc.Register(mux)
		defer func() {
			eng := svc.Engine()
			fmt.Fprintf(os.Stderr, "tifsserve: job engine ran %d simulations, %d store hits\n",
				eng.SimulationsRun(), eng.StoreHits())
			svc.Close()
		}()
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: mux,
		// Bound header reads so a stuck peer cannot pin a connection
		// forever; bodies are already bounded by the protocol's limits.
		ReadHeaderTimeout: 10 * time.Second,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tifsserve:", err)
		return 1
	}
	mode := "store only"
	if *jobs {
		mode = "store + jobs"
	}
	fmt.Fprintf(os.Stderr, "tifsserve: serving %s on http://%s (format v%d, %s)\n",
		*dir, ln.Addr(), store.FormatVersion, mode)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "tifsserve:", err)
			return 1
		}
	case <-sig:
		fmt.Fprintln(os.Stderr, "tifsserve: shutting down (in-flight requests get 5s to finish)")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// A hung drain is not worth blocking the store close: the
			// clients retry and the store is crash-safe anyway.
			srv.Close()
		}
	}
	return 0
}
