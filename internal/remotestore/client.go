package remotestore

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"tifs/internal/retry"
	"tifs/internal/sequitur"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
)

// Defaults for the client's robustness knobs. They are tuned for a LAN
// sweep: op deadlines short enough that a dead server costs milliseconds
// per miss (before the breaker removes even that), hedges late enough
// that only genuine stragglers pay a duplicate read.
const (
	DefaultTimeout     = 5 * time.Second
	DefaultHedgeDelay  = 250 * time.Millisecond
	DefaultBreakAfter  = 3
	DefaultCooldown    = time.Second
	DefaultQueueLimit  = 4096
	defaultCASAttempts = 32
)

// statusError carries an HTTP status through the retry classifier:
// 5xx and 429 are the server's "try again", everything else is a
// protocol-level permanent failure.
type statusError struct {
	status int
	op     string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("remotestore: %s: unexpected status %d", e.op, e.status)
}

func (e *statusError) Transient() bool {
	return e.status >= 500 || e.status == http.StatusTooManyRequests
}

// formatError is a version handshake failure — the server speaks a
// different store format, so its payloads must not be mixed with ours.
// Permanent by construction (no Transient method, unrecognized type).
type formatError struct{ got string }

func (e *formatError) Error() string {
	return fmt.Sprintf("remotestore: server store format %q, want %d — refusing to mix payloads", e.got, store.FormatVersion)
}

// Client is a store.Backend over the remote blob protocol, wrapped in
// the full robustness stack:
//
//   - every operation runs under a per-op deadline (Timeout);
//   - transient failures (connection resets, timeouts, 5xx, torn or
//     corrupt bodies) retry under capped backoff with deterministic
//     jitter (Retry, classified by retry.TransientNetwork);
//   - reads hedge: a straggling GET gets a duplicate request after
//     HedgeDelay and the first success wins, cutting tail latency when
//     the server stalls without failing;
//   - a circuit breaker opens after BreakAfter consecutive failed
//     operations, after which the client degrades to local: Get misses
//     instantly, Has answers false, and Put queues the payload in a
//     bounded dedup'd write-back queue. After Cooldown one probe request
//     is let through; its success closes the breaker and flushes the
//     queue, reconciling everything computed during the outage.
//
// The one-way defensiveness contract of store.Backend holds throughout:
// no failure mode returns wrong bytes, and no outage blocks progress —
// the worst case is recomputing results the server already had.
type Client struct {
	base string
	http *http.Client

	// baseCtx bounds every operation the client starts on its own —
	// blob gets/puts/has and recovery flushes. Cancelling it interrupts
	// in-flight requests AND cuts retry backoff sleeps short, so a
	// SIGINT-triggered shutdown never stalls for the retry budget
	// against a dead server.
	baseCtx context.Context

	// Timeout bounds each network operation (one attempt, not the whole
	// retry schedule).
	Timeout time.Duration
	// Retry is the per-attempt backoff schedule; its Classify defaults
	// to retry.TransientNetwork.
	Retry retry.Policy
	// HedgeDelay is how long a read may lag before a duplicate request
	// races it; 0 selects the default, negative disables hedging.
	HedgeDelay time.Duration
	// BreakAfter is the consecutive-failure threshold that opens the
	// breaker; Cooldown is how long it stays open before a probe.
	BreakAfter int
	Cooldown   time.Duration
	// QueueLimit bounds the write-back queue (entries, dedup'd by
	// address); beyond it, new payloads during an outage are dropped —
	// they remain recomputable, so dropping is safe.
	QueueLimit int

	mu       sync.Mutex
	failures int       // consecutive failed operations
	openedAt time.Time // breaker open since (zero = closed)
	probing  bool      // a half-open probe is in flight
	queue    []queued
	queued   map[store.Addr]int // addr -> index in queue
	stats    Stats

	// flushWG tracks recovery flushes launched by the breaker's close
	// transition, so Close can wait for them instead of reading the
	// queue depth mid-flush (and reporting "0 undelivered" while a
	// failed flush is still re-enqueueing).
	flushWG sync.WaitGroup
}

// queued is one deferred write-back: the payload plus the (kind, key)
// identity the server needs to verify the address on upload.
type queued struct {
	addr    store.Addr
	kind    byte
	key     string
	payload []byte
}

// Stats counts the client's traffic and degradations.
type Stats struct {
	Gets, GetHits     uint64
	Puts              uint64
	Hedges            uint64 // duplicate reads launched
	Retries           uint64 // extra attempts after a transient failure
	BreakerOpens      uint64
	QueuedWrites      uint64 // puts deferred while degraded
	DroppedWrites     uint64 // puts dropped at QueueLimit
	FlushedWrites     uint64 // queued puts delivered after recovery
	DegradedOps       uint64 // ops short-circuited by an open breaker
	FormatMismatches  uint64
	ManifestConflicts uint64 // CAS retries (412s)
}

// String renders a one-line summary for operator logs.
func (s Stats) String() string {
	return fmt.Sprintf("remote store: gets=%d hits=%d puts=%d retries=%d hedges=%d breaker-opens=%d degraded-ops=%d queued=%d flushed=%d dropped=%d cas-conflicts=%d",
		s.Gets, s.GetHits, s.Puts, s.Retries, s.Hedges, s.BreakerOpens,
		s.DegradedOps, s.QueuedWrites, s.FlushedWrites, s.DroppedWrites, s.ManifestConflicts)
}

// NewClient connects to a tifsserve base URL ("http://host:9441").
// ctx bounds every operation the client performs, including retry
// backoff waits and recovery flushes. Cancel it to make an in-flight
// retry schedule against a dead server return promptly (graceful
// shutdown); operations after cancellation degrade to misses and queued
// write-backs exactly like an outage. A nil ctx never cancels.
// httpClient may be nil (http.DefaultClient); tests inject a
// netfault-wrapped transport through it.
func NewClient(ctx context.Context, base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Client{
		base:       base,
		http:       httpClient,
		baseCtx:    ctx,
		Timeout:    DefaultTimeout,
		Retry:      retry.Policy{Classify: retry.TransientNetwork},
		BreakAfter: DefaultBreakAfter,
		Cooldown:   DefaultCooldown,
		QueueLimit: DefaultQueueLimit,
	}
}

var _ store.Backend = (*Client)(nil)

// Ping verifies the server is reachable and speaks our store format.
func (c *Client) Ping(ctx context.Context) error {
	return c.Retry.DoContext(ctx, func() error {
		ctx, cancel := c.opCtx(ctx)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/ping", nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return &statusError{resp.StatusCode, "ping"}
		}
		return checkFormat(resp)
	})
}

func (c *Client) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = c.ctx()
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return context.WithTimeout(ctx, timeout)
}

// ctx returns the client's base context (Background for the zero-ish
// construction paths that never set one).
func (c *Client) ctx() context.Context {
	if c.baseCtx != nil {
		return c.baseCtx
	}
	return context.Background()
}

// drain consumes and closes a response body so the connection is reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// checkFormat enforces the version handshake on any response carrying
// the header.
func checkFormat(resp *http.Response) error {
	if got := resp.Header.Get(headerFormat); got != "" && got != strconv.Itoa(store.FormatVersion) {
		return &formatError{got}
	}
	return nil
}

// --- circuit breaker ---------------------------------------------------

// admit reports whether an operation may go to the network. When the
// breaker is open and the cooldown has not elapsed, the operation
// degrades locally; once it has, a single caller is admitted as the
// half-open probe.
func (c *Client) admit() (probe, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.openedAt.IsZero() {
		return false, true
	}
	cooldown := c.Cooldown
	if cooldown <= 0 {
		cooldown = DefaultCooldown
	}
	if time.Since(c.openedAt) >= cooldown && !c.probing {
		c.probing = true
		return true, true
	}
	c.stats.DegradedOps++
	return false, false
}

// settle records an operation's outcome in the breaker and, on the
// close transition, flushes the write-back queue.
func (c *Client) settle(probe bool, err error) {
	c.mu.Lock()
	if probe {
		c.probing = false
	}
	if err == nil {
		c.failures = 0
		wasOpen := !c.openedAt.IsZero()
		c.openedAt = time.Time{}
		if wasOpen {
			// Recovery: reconcile everything computed during the outage.
			// Registered with flushWG while the lock is held, so a Close
			// racing this transition waits for the flush to settle.
			c.flushWG.Add(1)
			go func() {
				defer c.flushWG.Done()
				c.Flush(nil)
			}()
		}
		c.mu.Unlock()
		return
	}
	if errors.Is(err, context.Canceled) {
		// The caller asked to stop (base-context shutdown), the server
		// did not fail: neither a breaker failure nor a success.
		c.mu.Unlock()
		return
	}
	c.failures++
	threshold := c.BreakAfter
	if threshold <= 0 {
		threshold = DefaultBreakAfter
	}
	if c.openedAt.IsZero() && c.failures >= threshold {
		c.openedAt = time.Now()
		c.stats.BreakerOpens++
	} else if probe {
		// A failed probe re-opens the clock for a fresh cooldown.
		c.openedAt = time.Now()
	}
	c.mu.Unlock()
}

// enqueue defers a write-back until the server recovers. Deduplicated
// by address (content-addressed payloads are immutable, so the first
// copy is as good as the last); bounded, dropping beyond the limit —
// a dropped write-back stays recomputable forever.
func (c *Client) enqueue(q queued) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.push(q, true)
}

// push adds one write-back to the queue; the caller holds mu. fresh
// distinguishes a newly deferred payload (counted in QueuedWrites) from
// one re-queued by a failed flush, which was already counted when it
// first entered the queue — counting it again would drift QueuedWrites
// away from FlushedWrites+QueueDepth after every mid-flush failure.
func (c *Client) push(q queued, fresh bool) {
	if c.queued == nil {
		c.queued = map[store.Addr]int{}
	}
	if _, dup := c.queued[q.addr]; dup {
		return
	}
	limit := c.QueueLimit
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	if len(c.queue) >= limit {
		c.stats.DroppedWrites++
		return
	}
	c.queued[q.addr] = len(c.queue)
	c.queue = append(c.queue, q)
	if fresh {
		c.stats.QueuedWrites++
	}
}

// Flush synchronously delivers the write-back queue. Safe to call any
// time; payloads that still fail re-queue (without re-counting as
// queued). The breaker's close transition calls it automatically — an
// explicit call (tifsbench does one before exiting) bounds how much a
// crash could leave behind. A nil ctx uses the client's base context.
func (c *Client) Flush(ctx context.Context) {
	if ctx == nil {
		ctx = c.ctx()
	}
	c.mu.Lock()
	pending := c.queue
	c.queue = nil
	c.queued = nil
	c.mu.Unlock()
	for i, q := range pending {
		if err := c.putBlobNet(ctx, q); err != nil {
			// Server gone again: put everything undelivered back.
			c.mu.Lock()
			c.stats.FlushedWrites += uint64(i)
			for _, rest := range pending[i:] {
				c.push(rest, false)
			}
			c.mu.Unlock()
			return
		}
	}
	c.mu.Lock()
	c.stats.FlushedWrites += uint64(len(pending))
	c.mu.Unlock()
}

// QueueDepth reports how many write-backs are waiting for recovery.
func (c *Client) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// --- blob operations ---------------------------------------------------

func (c *Client) blobURL(addr store.Addr) string {
	return c.base + "/v1/blob/" + hex.EncodeToString(addr[:])
}

// getBlob fetches a payload, or reports a miss. Every failure mode is a
// miss: the caller recomputes, which is always correct.
func (c *Client) getBlob(addr store.Addr) ([]byte, bool) {
	probe, ok := c.admit()
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.stats.Gets++
	c.mu.Unlock()
	var payload []byte
	var found bool
	err := c.doRetry(c.ctx(), func() error {
		var err error
		payload, found, err = c.getBlobOnce(addr)
		return err
	})
	c.settle(probe, err)
	if err != nil || !found {
		return nil, false
	}
	c.mu.Lock()
	c.stats.GetHits++
	c.mu.Unlock()
	return payload, true
}

// doRetry runs op under the client's retry policy, counting the extra
// attempts. The schedule is bounded by ctx: a cancellation mid-backoff
// cuts the sleep short and returns immediately, so shutdown never waits
// out the retry budget against a dead server.
func (c *Client) doRetry(ctx context.Context, op func() error) error {
	attempt := 0
	p := c.Retry
	if p.Classify == nil {
		p.Classify = retry.TransientNetwork
	}
	return p.DoContext(ctx, func() error {
		if attempt++; attempt > 1 {
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
		}
		return op()
	})
}

// getBlobOnce is one hedged read: the primary GET races a duplicate
// launched after HedgeDelay, first success wins, the loser is
// cancelled. Reads are idempotent and the payloads content-addressed,
// so the duplicate can never disagree.
func (c *Client) getBlobOnce(addr store.Addr) (payload []byte, found bool, err error) {
	ctx, cancel := c.opCtx(c.ctx())
	defer cancel()

	delay := c.HedgeDelay
	if delay == 0 {
		delay = DefaultHedgeDelay
	}

	type outcome struct {
		payload []byte
		found   bool
		err     error
	}
	results := make(chan outcome, 2)
	launch := func() {
		p, f, e := c.fetch(ctx, addr)
		results <- outcome{p, f, e}
	}
	go launch()

	inFlight := 1
	var hedge *time.Timer
	var hedgeC <-chan time.Time
	if delay > 0 {
		hedge = time.NewTimer(delay)
		defer hedge.Stop()
		hedgeC = hedge.C
	}
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			inFlight++
			c.mu.Lock()
			c.stats.Hedges++
			c.mu.Unlock()
			go launch()
		case out := <-results:
			if out.err == nil {
				return out.payload, out.found, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inFlight--; inFlight == 0 {
				// Every launched request failed (with no hedge pending the
				// primary's failure lands here directly): surface the first
				// error to the retry layer.
				return nil, false, firstErr
			}
		}
	}
}

// fetch is one GET of one blob.
func (c *Client) fetch(ctx context.Context, addr store.Addr) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.blobURL(addr), nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer drain(resp)
	if err := checkFormat(resp); err != nil {
		c.mu.Lock()
		c.stats.FormatMismatches++
		c.mu.Unlock()
		return nil, false, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, &statusError{resp.StatusCode, "get blob"}
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
	if err != nil {
		return nil, false, err // torn body; classified transient
	}
	if want := resp.Header.Get(headerCRC); want != "" {
		if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)); got != want {
			// Corrupt in flight. Transient: the next read gets fresh bytes.
			return nil, false, &statusError{http.StatusServiceUnavailable, "get blob (checksum mismatch)"}
		}
	}
	return payload, true, nil
}

// putBlob stores a payload, degrading to the write-back queue when the
// server is unreachable. Fire-and-forget, like every Backend put. The
// (kind, key) identity travels with the upload so the server can verify
// the address binding before admitting the bytes.
func (c *Client) putBlob(kind byte, key string, payload []byte) {
	q := queued{addr: store.Address(kind, key), kind: kind, key: key, payload: payload}
	probe, ok := c.admit()
	if !ok {
		c.enqueue(q)
		return
	}
	c.mu.Lock()
	c.stats.Puts++
	c.mu.Unlock()
	err := c.putBlobNet(c.ctx(), q)
	c.settle(probe, err)
	if err != nil {
		c.enqueue(q)
	}
}

// putBlobNet is the raw retried upload.
func (c *Client) putBlobNet(ctx context.Context, q queued) error {
	target := c.blobURL(q.addr) + "?kind=" + strconv.Itoa(int(q.kind)) + "&key=" + url.QueryEscape(q.key)
	return c.doRetry(ctx, func() error {
		ctx, cancel := c.opCtx(ctx)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, target, bytes.NewReader(q.payload))
		if err != nil {
			return err
		}
		req.Header.Set(headerCRC, fmt.Sprintf("%08x", crc32.ChecksumIEEE(q.payload)))
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := checkFormat(resp); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusNoContent {
			return &statusError{resp.StatusCode, "put blob"}
		}
		return nil
	})
}

// hasBlob asks without transferring. False on any failure.
func (c *Client) hasBlob(addr store.Addr) bool {
	probe, ok := c.admit()
	if !ok {
		return false
	}
	var found bool
	err := c.doRetry(c.ctx(), func() error {
		ctx, cancel := c.opCtx(c.ctx())
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, c.blobURL(addr), nil)
		if err != nil {
			return err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer drain(resp)
		if err := checkFormat(resp); err != nil {
			return err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			found = true
			return nil
		case http.StatusNotFound:
			found = false
			return nil
		default:
			return &statusError{resp.StatusCode, "head blob"}
		}
	})
	c.settle(probe, err)
	return err == nil && found
}

// --- store.Backend -----------------------------------------------------

// GetResult implements store.Backend: any failure is a miss.
func (c *Client) GetResult(key string) (sim.Result, bool) {
	payload, ok := c.getBlob(store.Address(store.KindResult, key))
	if !ok {
		return sim.Result{}, false
	}
	r, err := store.DecodeResult(payload)
	if err != nil {
		return sim.Result{}, false
	}
	return r, true
}

// PutResult implements store.Backend.
func (c *Client) PutResult(key string, r sim.Result) {
	c.putBlob(store.KindResult, key, store.EncodeResult(r))
}

// GetMissTraces implements store.Backend.
func (c *Client) GetMissTraces(key string) ([][]trace.MissRecord, bool) {
	payload, ok := c.getBlob(store.Address(store.KindMissTraces, key))
	if !ok {
		return nil, false
	}
	recs, err := store.DecodeMissTraces(payload)
	if err != nil {
		return nil, false
	}
	return recs, true
}

// PutMissTraces implements store.Backend.
func (c *Client) PutMissTraces(key string, recs [][]trace.MissRecord) {
	payload, err := store.EncodeMissTraces(recs)
	if err != nil {
		return // unencodable payloads degrade to "never stored"
	}
	c.putBlob(store.KindMissTraces, key, payload)
}

// GetGrammars implements store.Backend.
func (c *Client) GetGrammars(key string) ([]*sequitur.Snapshot, bool) {
	payload, ok := c.getBlob(store.Address(store.KindGrammars, key))
	if !ok {
		return nil, false
	}
	snaps, err := store.DecodeGrammars(payload)
	if err != nil {
		return nil, false
	}
	return snaps, true
}

// PutGrammars implements store.Backend.
func (c *Client) PutGrammars(key string, snaps []*sequitur.Snapshot) {
	payload, err := store.EncodeGrammars(snaps)
	if err != nil {
		return // unencodable payloads degrade to "never stored"
	}
	c.putBlob(store.KindGrammars, key, payload)
}

// HasResult implements store.Backend.
func (c *Client) HasResult(key string) bool {
	return c.hasBlob(store.Address(store.KindResult, key))
}

// HasMissTraces implements store.Backend.
func (c *Client) HasMissTraces(key string) bool {
	return c.hasBlob(store.Address(store.KindMissTraces, key))
}

// HasGrammars implements store.Backend.
func (c *Client) HasGrammars(key string) bool {
	return c.hasBlob(store.Address(store.KindGrammars, key))
}

// Close delivers any queued write-backs (best effort, bounded by the
// op deadline per payload and by the base context) and releases the
// client. It first waits for any recovery flush the breaker launched
// asynchronously — otherwise Close could report "0 undelivered" while
// that flush was failing and re-enqueueing payloads.
func (c *Client) Close() error {
	c.flushWG.Wait()
	if c.QueueDepth() > 0 {
		c.Flush(nil)
	}
	if n := c.QueueDepth(); n > 0 {
		return fmt.Errorf("remotestore: %d write-backs undelivered (results remain recomputable)", n)
	}
	return nil
}
