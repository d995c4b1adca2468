package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// Lease states. A shard is free until claimed; a claim expires (and
// becomes claimable again) when its holder misses the lease deadline; a
// done shard's results are fully in the store.
const (
	StateFree    = "free"
	StateClaimed = "claimed"
	StateDone    = "done"
)

// Lease is one shard's assignment record.
type Lease struct {
	Index int
	State string
	// Owner identifies the claiming worker (host-pid, or a test name).
	Owner string
	// Expires is the claim's unix-seconds deadline; 0 when free or done.
	// A claimed shard past its deadline may be taken over by any worker —
	// the manifest lock guarantees exactly one winner.
	Expires int64
}

// HostPID names this process "host-pid": the owner a sweep worker
// writes into its leases, and the client name the CLIs give the sweep
// service for its per-client fairness accounting.
func HostPID() string {
	host, err := os.Hostname()
	if err != nil {
		host = "unknown-host"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// Manifest is the sweep's shared coordination state, stored as
// shards.manifest in the store directory and mutated only under the
// shards.lock flock.
type Manifest struct {
	// GridHash fingerprints the grid every worker must agree on.
	GridHash string
	// Count is the shard count; Shards has exactly Count entries,
	// Shards[i] describing shard i.
	Count  int
	Shards []Lease
}

const (
	manifestName    = "shards.manifest"
	manifestLock    = "shards.lock"
	manifestMagic   = "TIFSSHARDS"
	manifestVersion = 1
	// maxShards bounds manifest parsing; a sweep sharded a million ways
	// is a corrupt file, not a plan.
	maxShards = 1 << 20
)

// encode renders the manifest in its line-oriented file format:
//
//	TIFSSHARDS 1
//	grid <64-hex-hash> count <N>
//	shard <i> <state> <quoted-owner> <expiresUnix>
func (m Manifest) encode() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", manifestMagic, manifestVersion)
	fmt.Fprintf(&b, "grid %s count %d\n", m.GridHash, m.Count)
	for _, l := range m.Shards {
		fmt.Fprintf(&b, "shard %d %s %s %d\n", l.Index, l.State, strconv.Quote(l.Owner), l.Expires)
	}
	return []byte(b.String())
}

// parseManifest decodes and validates a manifest image. It is strict:
// anything malformed — wrong magic or version, a bad hash, shard lines
// missing, duplicated, out of order, or trailing garbage — is an error,
// so a torn or damaged coordination file halts the sweep loudly instead
// of silently double-assigning work.
func parseManifest(data []byte) (Manifest, error) {
	var m Manifest
	text := string(data)
	if !strings.HasSuffix(text, "\n") {
		return m, errors.New("shard: manifest missing final newline")
	}
	lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
	if len(lines) < 2 {
		return m, errors.New("shard: manifest truncated")
	}
	// Field-exact header parsing: Sscanf would tolerate trailing garbage,
	// and a torn write of this shared file must halt the sweep loudly.
	head := strings.Split(lines[0], " ")
	if len(head) != 2 || head[0] != manifestMagic {
		return m, errors.New("shard: not a manifest")
	}
	version, err := strconv.Atoi(head[1])
	if err != nil {
		return m, errors.New("shard: not a manifest")
	}
	if version != manifestVersion {
		return m, fmt.Errorf("shard: manifest version %d, want %d", version, manifestVersion)
	}
	grid := strings.Split(lines[1], " ")
	if len(grid) != 4 || grid[0] != "grid" || grid[2] != "count" {
		return m, errors.New("shard: bad manifest grid line")
	}
	m.GridHash = grid[1]
	if len(m.GridHash) != 64 || strings.Trim(m.GridHash, "0123456789abcdef") != "" {
		return m, errors.New("shard: bad grid hash")
	}
	if m.Count, err = strconv.Atoi(grid[3]); err != nil {
		return m, errors.New("shard: bad manifest grid line")
	}
	if m.Count < 1 || m.Count > maxShards {
		return m, fmt.Errorf("shard: implausible shard count %d", m.Count)
	}
	if len(lines) != 2+m.Count {
		return m, fmt.Errorf("shard: manifest has %d shard lines, want %d", len(lines)-2, m.Count)
	}
	m.Shards = make([]Lease, m.Count)
	for i, line := range lines[2:] {
		l, err := parseLease(line)
		if err != nil {
			return m, err
		}
		if l.Index != i {
			return m, fmt.Errorf("shard: lease line %d describes shard %d", i, l.Index)
		}
		m.Shards[i] = l
	}
	return m, nil
}

// parseLease decodes one "shard <i> <state> <quoted-owner> <expires>"
// line.
func parseLease(line string) (Lease, error) {
	var l Lease
	rest, ok := strings.CutPrefix(line, "shard ")
	if !ok {
		return l, fmt.Errorf("shard: bad lease line %q", line)
	}
	idx, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return l, fmt.Errorf("shard: bad lease line %q", line)
	}
	state, rest, ok := strings.Cut(rest, " ")
	if !ok {
		return l, fmt.Errorf("shard: bad lease line %q", line)
	}
	var err error
	if l.Index, err = strconv.Atoi(idx); err != nil || l.Index < 0 {
		return l, fmt.Errorf("shard: bad shard index %q", idx)
	}
	switch state {
	case StateFree, StateClaimed, StateDone:
		l.State = state
	default:
		return l, fmt.Errorf("shard: unknown lease state %q", state)
	}
	quoted, err := strconv.QuotedPrefix(rest)
	if err != nil {
		return l, fmt.Errorf("shard: bad lease owner in %q", line)
	}
	if l.Owner, err = strconv.Unquote(quoted); err != nil {
		return l, fmt.Errorf("shard: bad lease owner in %q", line)
	}
	rest = strings.TrimPrefix(rest[len(quoted):], " ")
	if l.Expires, err = strconv.ParseInt(rest, 10, 64); err != nil {
		return l, fmt.Errorf("shard: bad lease expiry in %q", line)
	}
	return l, nil
}

// DefaultTTL is how long a claim stays valid without renewal. Workers
// renew on a timer (Coordinator.RenewInterval) while they hold a shard,
// so a TTL this long only delays takeover when a worker dies.
//
// Deadlines are absolute unix timestamps compared against each reader's
// local clock, so machines cooperating on one sweep must have
// synchronized clocks (NTP-synced is plenty): skew between machines
// eats into the takeover grace, and skew approaching the TTL causes
// spurious takeovers — duplicated work, never wrong results.
const DefaultTTL = 10 * time.Minute

// Coordinator mediates shard assignment through the sweep manifest. All
// mutations run as one ManifestBackend.Update transaction — an
// exclusive flock plus atomic rename for the file backend, an ETag
// compare-and-swap for the remote one — so every transition, including
// the takeover of an expired lease, has exactly one winner, no matter
// how many workers race for it.
type Coordinator struct {
	backend ManifestBackend
	grid    Grid
	// hash is the grid's fingerprint, computed once at construction.
	hash  string
	count int
	// TTL is the lease duration granted by Claim and Renew.
	TTL time.Duration
	// Now is the clock (overridable in tests).
	Now func() time.Time
}

// NewCoordinator prepares shard coordination for grid split count ways
// through the manifest backend b: a FileManifest in the shared store
// directory, or a remote manifest behind a tifsserve URL.
func NewCoordinator(b ManifestBackend, grid Grid, count int) *Coordinator {
	return &Coordinator{
		backend: b,
		grid:    grid,
		hash:    grid.Hash(),
		count:   count,
		TTL:     DefaultTTL,
		Now:     time.Now,
	}
}

// RenewInterval is the cadence at which a worker holding a lease should
// renew it: a third of the TTL, so two renewals can fail transiently
// before the lease actually lapses.
func (c *Coordinator) RenewInterval() time.Duration {
	if c.TTL <= 0 {
		return DefaultTTL / 3
	}
	return c.TTL / 3
}

// update runs fn against the current manifest as one backend
// transaction, creating the manifest on first use, and persists fn's
// changes atomically. fn may return ErrManifestUnchanged to skip the
// write-back.
func (c *Coordinator) update(fn func(m *Manifest) error) error {
	if c.count < 1 || c.count > maxShards {
		return fmt.Errorf("shard: implausible shard count %d", c.count)
	}
	return c.backend.Update(func(cur []byte) ([]byte, error) {
		var m Manifest
		if cur == nil {
			m = c.freshManifest()
		} else {
			var err error
			if m, err = parseManifest(cur); err != nil {
				return nil, err
			}
			if m.GridHash != c.hash || m.Count != c.count {
				// A manifest whose every shard is done belongs to a finished
				// sweep: its results live safely in the store and it has no
				// further claim on the directory, so a sweep of a new shape
				// simply replaces it. An *unfinished* sweep is protected —
				// mismatched workers are turned away loudly.
				if !m.allDone() {
					if m.Count != c.count {
						return nil, fmt.Errorf("shard: manifest splits the sweep %d ways, this worker expects %d (an unfinished sweep owns %s; finish it or delete the file)", m.Count, c.count, c.where())
					}
					return nil, fmt.Errorf("shard: manifest grid %.12s… != this worker's grid %.12s… — either this worker's options diverge from the sweep's, or an unfinished sweep with different options owns %s (finish it or delete the file)", m.GridHash, c.hash, c.where())
				}
				m = c.freshManifest()
			}
		}
		if err := fn(&m); err != nil {
			return nil, err
		}
		return m.encode(), nil
	})
}

// freshManifest is the first-use coordination state: every shard free.
func (c *Coordinator) freshManifest() Manifest {
	m := Manifest{GridHash: c.hash, Count: c.count, Shards: make([]Lease, c.count)}
	for i := range m.Shards {
		m.Shards[i] = Lease{Index: i, State: StateFree}
	}
	return m
}

// where names the manifest's location for operator-facing errors.
func (c *Coordinator) where() string {
	if f, ok := c.backend.(*FileManifest); ok {
		return filepath.Join(f.Dir, manifestName)
	}
	return "the sweep manifest"
}

// Manifest returns a validated snapshot of the coordination state.
func (c *Coordinator) Manifest() (Manifest, error) {
	var snap Manifest
	err := c.update(func(m *Manifest) error {
		snap = *m
		snap.Shards = append([]Lease{}, m.Shards...)
		return ErrManifestUnchanged
	})
	return snap, err
}

// ClaimAny leases the first claimable shard — free, or claimed but
// expired — to owner. ok is false when every shard is done or validly
// leased elsewhere.
func (c *Coordinator) ClaimAny(owner string) (index int, ok bool, err error) {
	now := c.Now()
	err = c.update(func(m *Manifest) error {
		// Reset on entry: a CAS backend replays fn against a newer image
		// after a lost write race, and a claim granted in the discarded
		// round must not leak out of it.
		index, ok = 0, false
		for i := range m.Shards {
			if c.claimable(m.Shards[i], now) {
				m.Shards[i] = Lease{Index: i, State: StateClaimed, Owner: owner, Expires: now.Add(c.TTL).Unix()}
				index, ok = i, true
				return nil
			}
		}
		return ErrManifestUnchanged
	})
	return index, ok && err == nil, err
}

// Claim leases the specific shard index to owner. A done shard may be
// re-claimed (re-running it is idempotent: its results are already
// stored and the worker skips them); a live claim by another owner is an
// error.
func (c *Coordinator) Claim(index int, owner string) error {
	now := c.Now()
	return c.update(func(m *Manifest) error {
		if index < 0 || index >= m.Count {
			return fmt.Errorf("shard: index %d out of range [0,%d)", index, m.Count)
		}
		l := m.Shards[index]
		if l.State == StateClaimed && l.Owner != owner && !c.expired(l, now) {
			return fmt.Errorf("shard: shard %d is leased to %s until %s",
				index, l.Owner, time.Unix(l.Expires, 0).Format(time.RFC3339))
		}
		m.Shards[index] = Lease{Index: index, State: StateClaimed, Owner: owner, Expires: now.Add(c.TTL).Unix()}
		return nil
	})
}

// ErrLeaseLost reports that a lease is no longer held by its claimed
// owner — another worker took the shard over. Renewal errors wrapping it
// are terminal for the shard; any other renewal error (manifest I/O on a
// flaky shared filesystem) is transient and worth retrying while the
// lease deadline holds.
var ErrLeaseLost = errors.New("lease no longer held")

// Renew extends owner's lease on a shard. Renewal after a takeover
// (another worker now holds the shard) fails with ErrLeaseLost, telling
// the stale worker to stop: its finished records are already safe in the
// store.
func (c *Coordinator) Renew(index int, owner string) error {
	now := c.Now()
	return c.update(func(m *Manifest) error {
		if index < 0 || index >= m.Count {
			return fmt.Errorf("shard: index %d out of range [0,%d)", index, m.Count)
		}
		l := m.Shards[index]
		if l.State != StateClaimed || l.Owner != owner {
			return fmt.Errorf("shard: shard %d is not leased to %s (state %s, owner %s): %w",
				index, owner, l.State, l.Owner, ErrLeaseLost)
		}
		m.Shards[index].Expires = now.Add(c.TTL).Unix()
		return nil
	})
}

// Release hands owner's claim on a shard back: the lease returns to
// free, immediately claimable by any worker — no TTL expiry wait. An
// interrupted worker (SIGINT mid-sweep) releases on the way out so the
// rest of the fleet, or a retry, can pick the shard up at once. Releasing
// a shard owner no longer holds is a no-op: the takeover already
// transferred ownership, and done is terminal.
func (c *Coordinator) Release(index int, owner string) error {
	return c.update(func(m *Manifest) error {
		if index < 0 || index >= m.Count {
			return fmt.Errorf("shard: index %d out of range [0,%d)", index, m.Count)
		}
		l := m.Shards[index]
		if l.State != StateClaimed || l.Owner != owner {
			return ErrManifestUnchanged
		}
		m.Shards[index] = Lease{Index: index, State: StateFree}
		return nil
	})
}

// ReleaseAfter is the release a worker performs on its way out of a
// failed shard run, gated on why the run ended. When runErr says the
// lease was lost — a peer took the shard over, or the renewer presumed
// it lost after failures spanning the TTL — the worker must NOT
// release: by the time it acts, the shard may be validly claimed by a
// new owner, and if that owner's identity string collides with this
// worker's (host-pid owner names recur when a host reuses a pid), a
// plain Release would pass the ownership check and rewrite the new
// claim to free, double-assigning the shard. Ceding the lease to the
// TTL is always safe; releasing over a live claim never is. Any other
// failure releases normally so the fleet can reclaim immediately.
func (c *Coordinator) ReleaseAfter(runErr error, index int, owner string) error {
	if errors.Is(runErr, ErrLeaseLost) {
		return nil
	}
	return c.Release(index, owner)
}

// Complete marks a shard done. Done is terminal and idempotent: the
// shard's results live in the store, whoever computed them. Once every
// shard is done the sweep is finished, and the manifest yields the
// directory to any future sweep of a different shape (see update).
func (c *Coordinator) Complete(index int) error {
	return c.update(func(m *Manifest) error {
		if index < 0 || index >= m.Count {
			return fmt.Errorf("shard: index %d out of range [0,%d)", index, m.Count)
		}
		m.Shards[index] = Lease{Index: index, State: StateDone}
		return nil
	})
}

// allDone reports a finished sweep: every shard completed.
func (m Manifest) allDone() bool {
	for _, l := range m.Shards {
		if l.State != StateDone {
			return false
		}
	}
	return true
}

func (c *Coordinator) claimable(l Lease, now time.Time) bool {
	return l.State == StateFree || (l.State == StateClaimed && c.expired(l, now))
}

func (c *Coordinator) expired(l Lease, now time.Time) bool {
	return now.Unix() >= l.Expires
}
