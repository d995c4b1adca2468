package shard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/store"
)

// TestShardedSweepCooperates is the package's end-to-end guarantee,
// exercised under the race detector in CI: N goroutine-simulated workers
// share one store directory, claim shards through the lease file, and
// fill the store cooperatively; afterwards no record is missing, the
// manifest shows every shard done, and an engine reading only the store
// reproduces the exact results of a serial, storeless run.
func TestShardedSweepCooperates(t *testing.T) {
	g := testGrid(t, 3_000)
	for _, count := range []int{1, 2, 4} {
		count := count
		t.Run(fmt.Sprintf("%dshards", count), func(t *testing.T) {
			dir := t.TempDir()
			var wg sync.WaitGroup
			errs := make(chan error, count)
			for w := 0; w < count; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					owner := fmt.Sprintf("worker-%d", w)
					st, err := store.Open(dir)
					if err != nil {
						errs <- err
						return
					}
					defer st.Close()
					c := NewCoordinator(&FileManifest{Dir: dir}, g, count)
					c.TTL = time.Hour
					for {
						idx, ok, err := c.ClaimAny(owner)
						if err != nil {
							errs <- err
							return
						}
						if !ok {
							return
						}
						if _, err := Run(context.Background(), st, g, idx, count, 2, func() error { return c.Renew(idx, owner) }, 50*time.Millisecond, time.Hour); err != nil {
							errs <- err
							return
						}
						if err := c.Complete(idx); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Every shard is done.
			m, err := NewCoordinator(&FileManifest{Dir: dir}, g, count).Manifest()
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range m.Shards {
				if l.State != StateDone {
					t.Errorf("shard %d finished in state %s", l.Index, l.State)
				}
			}

			// No record was lost: the merge engine must satisfy the whole
			// grid from the store without simulating anything.
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if jobs, traces := Missing(st, g); len(jobs)+len(traces) != 0 {
				t.Fatalf("store is missing %d jobs and %d traces after all shards completed",
					len(jobs), len(traces))
			}
			merged := engine.New(4)
			merged.SetBackend(st)
			mergedResults := merged.RunAll(context.Background(), g.Jobs)
			var mergedTraces [][][]int // compact shape probe: (trace, core) -> record count
			for _, tj := range g.Traces {
				recs := merged.ExtractTraces(context.Background(), tj)
				var shape [][]int
				for _, core := range recs {
					shape = append(shape, []int{len(core)})
				}
				mergedTraces = append(mergedTraces, shape)
			}
			if got := merged.SimulationsRun(); got != 0 {
				t.Errorf("merge pass re-simulated %d grid points", got)
			}

			// And the merged results are identical to a serial, storeless
			// run — sharding changed nothing but who computed what.
			serial := engine.New(1)
			serialResults := serial.RunAll(context.Background(), g.Jobs)
			if !reflect.DeepEqual(mergedResults, serialResults) {
				t.Error("merged results diverge from a serial storeless run")
			}
			for ti, tj := range g.Traces {
				recs := serial.ExtractTraces(context.Background(), tj)
				for ci, core := range recs {
					if mergedTraces[ti][ci][0] != len(core) {
						t.Errorf("trace %d core %d: merged %d records, serial %d",
							ti, ci, mergedTraces[ti][ci][0], len(core))
					}
				}
			}
		})
	}
}

// TestLostLeaseAbortsRun: when the timer-driven renewal reports the
// lease taken over, Run must stop at a batch boundary and surface the
// loss instead of burning cycles on a shard it no longer owns. A merely
// transient renewal error must NOT abort until it persists.
func TestLostLeaseAbortsRun(t *testing.T) {
	g := testGrid(t, 2_000)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	renew := func() error { return fmt.Errorf("shard 0 is leased to usurper: %w", ErrLeaseLost) }
	_, err = Run(context.Background(), st, g, 0, 1, 1, renew, time.Microsecond, time.Hour)
	if err == nil || !strings.Contains(err.Error(), "lease lost") {
		t.Fatalf("run with a taken-over lease returned %v, want a lease-lost error", err)
	}

	// A single transient failure followed by successes never aborts.
	var calls int
	var mu sync.Mutex
	flaky := func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return fmt.Errorf("transient manifest I/O error")
		}
		return nil
	}
	if _, err := Run(context.Background(), st, g, 0, 1, 1, flaky, time.Microsecond, time.Hour); err != nil {
		t.Fatalf("one transient renewal failure aborted the shard: %v", err)
	}
}

// TestHalfFinishedShardResumes: a worker that dies mid-shard leaves its
// finished records in the store; the peer that takes over the expired
// lease pays only for what is missing and the sweep still completes
// losslessly.
func TestHalfFinishedShardResumes(t *testing.T) {
	g := testGrid(t, 3_000)
	dir := t.TempDir()

	// The dying worker: simulate a prefix of shard 0 by hand, then vanish
	// without completing the lease.
	dying := NewCoordinator(&FileManifest{Dir: dir}, g, 1)
	dying.TTL = -time.Second // lease is born expired
	if _, ok, err := dying.ClaimAny("dying"); err != nil || !ok {
		t.Fatalf("setup claim failed: ok=%v err=%v", ok, err)
	}
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	half := g.Shard(0, 1)
	partial := engine.New(2)
	partial.SetBackend(st1)
	done := len(half.Jobs) / 2
	partial.RunAll(context.Background(), half.Jobs[:done])
	st1.Close()

	// The successor takes over and finishes.
	c := NewCoordinator(&FileManifest{Dir: dir}, g, 1)
	c.TTL = time.Hour
	idx, ok, err := c.ClaimAny("successor")
	if err != nil || !ok {
		t.Fatalf("takeover claim failed: ok=%v err=%v", ok, err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rep, err := Run(context.Background(), st2, g, idx, 1, 2, nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(idx); err != nil {
		t.Fatal(err)
	}
	if rep.StoreHits != uint64(done) {
		t.Errorf("successor had %d store hits, want %d (the dead worker's finished prefix)",
			rep.StoreHits, done)
	}
	if want := uint64(len(half.Jobs) - done); rep.Simulated != want {
		t.Errorf("successor simulated %d jobs, want exactly the missing %d", rep.Simulated, want)
	}
	if jobs, traces := Missing(st2, g); len(jobs)+len(traces) != 0 {
		t.Errorf("resumed sweep left %d jobs and %d traces missing", len(jobs), len(traces))
	}
}
