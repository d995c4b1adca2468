package shard

import (
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"

	"tifs/internal/vfs"
)

// faultCoordinator wires a coordinator to a manifest on a
// fault-injecting filesystem with instant (non-sleeping) retries.
func faultCoordinator(t *testing.T, dir string, g Grid, count int, fsys vfs.FS) *Coordinator {
	t.Helper()
	m := &FileManifest{Dir: dir, FS: fsys}
	m.Retry.Sleep = func(time.Duration) {}
	c := NewCoordinator(m, g, count)
	c.TTL = time.Hour
	return c
}

// TestFaultClaimRidesOutTransientManifestIO: one EIO each on the lock
// acquisition, the manifest read, and the manifest write-back — the
// flaky-shared-NFS triple — and the claim still goes through.
func TestFaultClaimRidesOutTransientManifestIO(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 2_000)
	ffs := vfs.NewFault(vfs.OS,
		vfs.Rule{Op: vfs.OpLock, Path: manifestLock},
		vfs.Rule{Op: vfs.OpReadFile, Path: manifestName},
		vfs.Rule{Op: vfs.OpWrite, Path: manifestName + ".tmp"},
	)
	c := faultCoordinator(t, dir, g, 2, ffs)

	if err := c.Claim(0, "alice"); err != nil {
		t.Fatalf("claim through transient faults: %v", err)
	}
	// The written manifest is valid and carries the claim.
	m, err := testCoordinator(t, dir, g, 2).Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if l := m.Shards[0]; l.State != StateClaimed || l.Owner != "alice" {
		t.Fatalf("shard 0 after faulted claim: %+v", l)
	}
}

// TestFaultTornManifestWriteNeverVisible: a torn write of the manifest
// temp file is retried whole; the manifest other workers read is always
// a complete image, so the strict parser never wedges the sweep.
func TestFaultTornManifestWriteNeverVisible(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 2_000)
	ffs := vfs.NewFault(vfs.OS,
		vfs.Rule{Op: vfs.OpWrite, Path: manifestName + ".tmp", Mode: vfs.ModeShortWrite})
	c := faultCoordinator(t, dir, g, 2, ffs)

	if err := c.Claim(1, "bob"); err != nil {
		t.Fatalf("claim through a torn manifest write: %v", err)
	}
	m, err := testCoordinator(t, dir, g, 2).Manifest()
	if err != nil {
		t.Fatalf("manifest after torn write-back does not parse: %v", err)
	}
	if l := m.Shards[1]; l.State != StateClaimed || l.Owner != "bob" {
		t.Fatalf("shard 1 after torn-write claim: %+v", l)
	}
}

// TestFaultManifestCrashMidUpdateKeepsOldManifest: a worker killed while
// replacing the manifest leaves the previous (valid) manifest in place —
// existing claims survive, the failed mutation simply never happened,
// and the sweep continues.
func TestFaultManifestCrashMidUpdateKeepsOldManifest(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 2_000)
	clean := testCoordinator(t, dir, g, 2)
	if err := clean.Claim(0, "alice"); err != nil {
		t.Fatal(err)
	}

	for _, crashAt := range []vfs.Rule{
		{Op: vfs.OpWrite, Path: manifestName + ".tmp", Mode: vfs.ModeCrash},
		{Op: vfs.OpRename, Path: manifestName, Mode: vfs.ModeCrash},
	} {
		ffs := vfs.NewFault(vfs.OS, crashAt)
		c := faultCoordinator(t, dir, g, 2, ffs)
		if err := c.Claim(1, "bob"); !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash at %v: claim returned %v, want ErrCrashed", crashAt, err)
		}
		// The old manifest is intact: alice's claim stands, bob's never
		// landed, and a healthy worker can still claim shard 1.
		m, err := clean.Manifest()
		if err != nil {
			t.Fatalf("crash at %v left an unreadable manifest: %v", crashAt, err)
		}
		if l := m.Shards[0]; l.State != StateClaimed || l.Owner != "alice" {
			t.Fatalf("crash at %v clobbered alice's claim: %+v", crashAt, l)
		}
		if l := m.Shards[1]; l.State != StateFree {
			t.Fatalf("crash at %v half-applied bob's claim: %+v", crashAt, l)
		}
	}

	if err := clean.Claim(1, "bob"); err != nil {
		t.Fatalf("recovery claim: %v", err)
	}
}

// TestFaultPermanentManifestFaultIsCleanError: a disk that stays broken
// (ENOSPC forever) surfaces as an error from the coordination call — no
// hang, no corrupt manifest, and the lease state other workers see is
// unchanged.
func TestFaultPermanentManifestFaultIsCleanError(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 2_000)
	ffs := vfs.NewFault(vfs.OS,
		vfs.Rule{Op: vfs.OpWrite, Path: manifestName + ".tmp", Err: syscall.ENOSPC, Times: -1})
	c := faultCoordinator(t, dir, g, 2, ffs)

	if err := c.Claim(0, "alice"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("claim on a full disk returned %v, want ENOSPC", err)
	}
	m, err := testCoordinator(t, dir, g, 2).Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if l := m.Shards[0]; l.State != StateFree {
		t.Fatalf("failed claim leaked state: %+v", l)
	}
}

// TestFaultRenewerBoundsTransientFailures: renewals failing transiently
// are tolerated only while the lease can still be alive. Once the
// failures span the TTL with no success, the renewer latches a
// presumed-lost error instead of renewing forever against a dead disk.
func TestFaultRenewerBoundsTransientFailures(t *testing.T) {
	r := startRenewer(func() error { return syscall.EIO }, time.Millisecond, 25*time.Millisecond)
	defer r.Stop()
	deadline := time.After(10 * time.Second)
	for r.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("renewer never latched an error despite failures spanning the TTL")
		case <-time.After(time.Millisecond):
		}
	}
	if msg := r.Err().Error(); !strings.Contains(msg, "presumed lost") {
		t.Fatalf("latched error %q, want a presumed-lost diagnosis", msg)
	}
}

// TestFaultRenewerLatchesLostLeaseImmediately: a takeover (ErrLeaseLost)
// is terminal on the first tick — no TTL grace applies, because another
// worker already owns the shard.
func TestFaultRenewerLatchesLostLeaseImmediately(t *testing.T) {
	renew := func() error { return ErrLeaseLost }
	r := startRenewer(renew, time.Millisecond, time.Hour)
	defer r.Stop()
	deadline := time.After(10 * time.Second)
	for r.Err() == nil {
		select {
		case <-deadline:
			t.Fatal("renewer sat on ErrLeaseLost despite a generous deadline")
		case <-time.After(time.Millisecond):
		}
	}
	if !errors.Is(r.Err(), ErrLeaseLost) {
		t.Fatalf("latched %v, want ErrLeaseLost", r.Err())
	}
}

// TestFaultMatrixLeaseLifecycle injects a fault at every filesystem
// operation of the claim → renew → complete lifecycle — once as a single
// transient EIO, once as a crash — and checks the invariants no fault
// may break: the manifest a healthy worker reads afterwards always
// parses (or is absent, which is first-use), the shard is never left
// with a phantom owner, and a fully-successful lifecycle always lands
// state done.
func TestFaultMatrixLeaseLifecycle(t *testing.T) {
	g := testGrid(t, 2_000)
	lifecycle := func(c *Coordinator) (ok bool) {
		if err := c.Claim(0, "w"); err != nil {
			return false
		}
		if err := c.Renew(0, "w"); err != nil {
			return false
		}
		return c.Complete(0) == nil
	}

	cleanDir := t.TempDir()
	capture := vfs.NewFault(vfs.OS)
	if !lifecycle(faultCoordinator(t, cleanDir, g, 2, capture)) {
		t.Fatal("clean lifecycle did not complete")
	}
	tr := capture.Trace()
	if len(tr) < 10 {
		t.Fatalf("implausibly short clean trace (%d ops)", len(tr))
	}

	for _, inj := range []struct {
		name string
		mode vfs.Mode
		err  error
	}{
		{"transient-eio", vfs.ModeError, syscall.EIO},
		{"crash", vfs.ModeCrash, vfs.ErrCrashed},
	} {
		t.Run(inj.name, func(t *testing.T) {
			for i, rec := range tr {
				rule := vfs.RuleForTraceIndex(tr, i, inj.mode, inj.err)
				rule.Path = strings.TrimPrefix(rule.Path, cleanDir)
				dir := t.TempDir()
				completed := lifecycle(faultCoordinator(t, dir, g, 2, vfs.NewFault(vfs.OS, rule)))

				// Whatever the fault left behind, a healthy worker reads a
				// valid coordination state and sees no phantom owner.
				m, err := testCoordinator(t, dir, g, 2).Manifest()
				if err != nil {
					t.Fatalf("op %d (%v): manifest unreadable after fault: %v", i, rec, err)
				}
				l := m.Shards[0]
				if l.State == StateClaimed && l.Owner != "w" {
					t.Errorf("op %d (%v): shard 0 claimed by phantom %q", i, rec, l.Owner)
				}
				if completed && l.State != StateDone {
					t.Errorf("op %d (%v): lifecycle reported success but shard 0 is %s", i, rec, l.State)
				}
				// And the sweep always continues: the interrupted worker can
				// re-claim its shard (a live lease only yields to its owner
				// until the TTL lapses) and retry.
				if l.State != StateDone {
					if err := testCoordinator(t, dir, g, 2).Claim(0, "w"); err != nil {
						t.Errorf("op %d (%v): recovery claim failed: %v", i, rec, err)
					}
				}
			}
		})
	}
}
