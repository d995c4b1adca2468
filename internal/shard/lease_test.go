package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func testCoordinator(t *testing.T, dir string, g Grid, count int) *Coordinator {
	t.Helper()
	c := NewCoordinator(&FileManifest{Dir: dir}, g, count)
	c.TTL = time.Hour
	return c
}

// TestClaimLifecycle walks a lease through claim, renew, and complete.
func TestClaimLifecycle(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 4_000)
	c := testCoordinator(t, dir, g, 2)

	i1, ok, err := c.ClaimAny("alice")
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}
	i2, ok, err := c.ClaimAny("bob")
	if err != nil || !ok {
		t.Fatalf("second claim: ok=%v err=%v", ok, err)
	}
	if i1 == i2 {
		t.Fatalf("both workers claimed shard %d", i1)
	}
	if _, ok, _ := c.ClaimAny("carol"); ok {
		t.Fatal("third claim succeeded on a fully-leased sweep")
	}
	if err := c.Renew(i1, "alice"); err != nil {
		t.Errorf("holder's renew refused: %v", err)
	}
	if err := c.Renew(i1, "bob"); err == nil {
		t.Error("non-holder renewed a lease")
	}
	if err := c.Complete(i1); err != nil {
		t.Fatal(err)
	}
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards[i1].State != StateDone || m.Shards[i2].State != StateClaimed {
		t.Errorf("manifest after lifecycle: %+v", m.Shards)
	}
	// A done shard is not claimable via ClaimAny...
	if _, ok, _ := c.ClaimAny("carol"); ok {
		t.Error("done shard re-claimed by ClaimAny")
	}
	// ...but an explicit pinned claim may re-run it idempotently.
	if err := c.Claim(i1, "carol"); err != nil {
		t.Errorf("explicit re-claim of a done shard refused: %v", err)
	}
	// A live lease is protected from explicit claims by others.
	if err := c.Claim(i2, "carol"); err == nil {
		t.Error("explicit claim stole a live lease")
	}
}

// TestExpiredLeaseSingleWinner is the takeover race: many workers racing
// for a dead peer's expired lease must produce exactly one winner, and
// the loser's renewals must fail.
func TestExpiredLeaseSingleWinner(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 4_000)

	// The dead worker's coordinator grants leases that are already
	// expired the moment they are written.
	dead := testCoordinator(t, dir, g, 1)
	dead.TTL = -time.Second
	idx, ok, err := dead.ClaimAny("dead-worker")
	if err != nil || !ok || idx != 0 {
		t.Fatalf("setup claim: idx=%d ok=%v err=%v", idx, ok, err)
	}

	const racers = 8
	winners := make(chan string, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testCoordinator(t, dir, g, 1)
			owner := string(rune('A' + w))
			if _, ok, err := c.ClaimAny(owner); err == nil && ok {
				winners <- owner
			}
		}(w)
	}
	wg.Wait()
	close(winners)
	var won []string
	for w := range winners {
		won = append(won, w)
	}
	if len(won) != 1 {
		t.Fatalf("expired lease takeover had %d winners (%v), want exactly 1", len(won), won)
	}
	// The dead worker coming back must be told its lease is gone.
	if err := dead.Renew(0, "dead-worker"); err == nil {
		t.Error("stale worker renewed a taken-over lease")
	}
	c := testCoordinator(t, dir, g, 1)
	if err := c.Renew(0, won[0]); err != nil {
		t.Errorf("winner cannot renew: %v", err)
	}
}

// TestManifestRejectsDivergentWorkers: a worker whose options produce a
// different grid, or a different shard count, must be turned away before
// it can corrupt the assignment.
func TestManifestRejectsDivergentWorkers(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 4_000)
	c := testCoordinator(t, dir, g, 4)
	if _, _, err := c.ClaimAny("alice"); err != nil {
		t.Fatal(err)
	}

	other := testCoordinator(t, dir, testGrid(t, 9_000), 4)
	if _, _, err := other.ClaimAny("bob"); err == nil || !strings.Contains(err.Error(), "grid") {
		t.Errorf("divergent grid accepted (err=%v)", err)
	}
	miscount := testCoordinator(t, dir, g, 8)
	if _, _, err := miscount.ClaimAny("bob"); err == nil || !strings.Contains(err.Error(), "ways") {
		t.Errorf("divergent shard count accepted (err=%v)", err)
	}
}

// TestFinishedSweepYieldsToNewGrid: once every shard of a sweep is
// done, the same cache directory must accept a sweep of a different
// shape (different grid or shard count) without manual cleanup — but an
// unfinished sweep keeps its claim (TestManifestRejectsDivergentWorkers).
func TestFinishedSweepYieldsToNewGrid(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 4_000)
	c := testCoordinator(t, dir, g, 2)
	for i := 0; i < 2; i++ {
		if _, ok, err := c.ClaimAny("alice"); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		if err := c.Complete(i); err != nil {
			t.Fatal(err)
		}
	}
	// A re-run of the *same* finished sweep is a no-op, not a restart.
	if _, ok, err := c.ClaimAny("alice"); err != nil || ok {
		t.Fatalf("finished sweep re-claimed: ok=%v err=%v", ok, err)
	}
	// A different grid and shard count takes the directory over cleanly.
	next := testCoordinator(t, dir, testGrid(t, 9_000), 3)
	idx, ok, err := next.ClaimAny("bob")
	if err != nil || !ok {
		t.Fatalf("new sweep rejected by a finished manifest: ok=%v err=%v", ok, err)
	}
	m, err := next.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 || m.Shards[idx].Owner != "bob" {
		t.Errorf("replacement manifest wrong: %+v", m)
	}
}

// TestReleaseAfterLostLeaseIsNoOp is the pid-reuse regression: a worker
// whose renewer presumed the lease lost (a partition outlasting the
// TTL) must not release on its way out, because the shard may since
// have been claimed by a new worker carrying the *same* owner string —
// host-pid names recur when a host reuses a pid — and the ownership
// check in Release cannot tell the two apart. ReleaseAfter gates on the
// run error instead.
func TestReleaseAfterLostLeaseIsNoOp(t *testing.T) {
	dir := t.TempDir()
	g := testGrid(t, 4_000)
	const owner = "host-42" // same string for zombie and successor

	// The zombie's claim expires immediately; a successor with the same
	// owner name takes the shard over.
	zombie := testCoordinator(t, dir, g, 1)
	zombie.TTL = -time.Second
	if _, ok, err := zombie.ClaimAny(owner); err != nil || !ok {
		t.Fatalf("zombie claim: ok=%v err=%v", ok, err)
	}
	successor := testCoordinator(t, dir, g, 1)
	if _, ok, err := successor.ClaimAny(owner); err != nil || !ok {
		t.Fatalf("successor takeover: ok=%v err=%v", ok, err)
	}

	// The zombie finally exits with the error its renewer latched while
	// partitioned. ReleaseAfter must leave the successor's claim alone.
	runErr := fmt.Errorf("shard: lease presumed lost after 9 failed renewals spanning 30s (TTL 10s): i/o timeout: %w", ErrLeaseLost)
	if err := zombie.ReleaseAfter(runErr, 0, owner); err != nil {
		t.Fatalf("ReleaseAfter(lost): %v", err)
	}
	m, err := successor.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if l := m.Shards[0]; l.State != StateClaimed || l.Owner != owner {
		t.Fatalf("zombie's exit released the successor's live claim: %+v", l)
	}
	if err := successor.Renew(0, owner); err != nil {
		t.Fatalf("successor lost its lease to a zombie release: %v", err)
	}

	// Any failure that is NOT a lost lease still releases promptly so the
	// fleet can reclaim without waiting out the TTL.
	if err := successor.ReleaseAfter(errors.New("simulation panic"), 0, owner); err != nil {
		t.Fatalf("ReleaseAfter(other): %v", err)
	}
	m, err = successor.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if l := m.Shards[0]; l.State != StateFree {
		t.Fatalf("ordinary failure did not release: %+v", l)
	}
}

// TestManifestRoundTrip pins the file format.
func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		GridHash: strings.Repeat("ab", 32),
		Count:    3,
		Shards: []Lease{
			{Index: 0, State: StateDone},
			{Index: 1, State: StateClaimed, Owner: `host "weird name" 7`, Expires: 1_753_800_000},
			{Index: 2, State: StateFree},
		},
	}
	got, err := parseManifest(m.encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.GridHash != m.GridHash || got.Count != m.Count || len(got.Shards) != 3 {
		t.Fatalf("round trip mangled manifest: %+v", got)
	}
	for i := range m.Shards {
		if got.Shards[i] != m.Shards[i] {
			t.Errorf("shard %d: %+v != %+v", i, got.Shards[i], m.Shards[i])
		}
	}
	for _, bad := range []string{
		"",
		"TIFSSHARDS 1\n",
		"TIFSSHARDS 2\ngrid x count 1\nshard 0 free \"\" 0\n",
		"TIFSSHARDS 1\ngrid deadbeef count 1\nshard 0 free \"\" 0\n",
		"TIFSSHARDS 1\ngrid " + strings.Repeat("ab", 32) + " count 2\nshard 0 free \"\" 0\n",
		"TIFSSHARDS 1\ngrid " + strings.Repeat("ab", 32) + " count 1\nshard 0 stolen \"\" 0\n",
		"TIFSSHARDS 1\ngrid " + strings.Repeat("ab", 32) + " count 1\nshard 1 free \"\" 0\n",
		// Trailing in-line garbage: the parser is field-exact.
		"TIFSSHARDS 1 junk\ngrid " + strings.Repeat("ab", 32) + " count 1\nshard 0 free \"\" 0\n",
		"TIFSSHARDS 1\ngrid " + strings.Repeat("ab", 32) + " count 1 junk\nshard 0 free \"\" 0\n",
	} {
		if _, err := parseManifest([]byte(bad)); err == nil {
			t.Errorf("malformed manifest accepted: %q", bad)
		}
	}
}
