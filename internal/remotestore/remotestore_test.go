package remotestore

import (
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tifs/internal/engine"
	"tifs/internal/netfault"
	"tifs/internal/shard"
	"tifs/internal/sim"
	"tifs/internal/store"
	"tifs/internal/trace"
	"tifs/internal/workload"
)

// newRig starts a tifsserve-equivalent over a fresh store directory and
// returns a client whose transport is wrapped by the given fault
// injector (nil for a clean network). Retries run instantly.
func newRig(t *testing.T, f *netfault.Fault) (*httptest.Server, *Client) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := httptest.NewServer(NewServer(st, dir).Handler())
	t.Cleanup(srv.Close)
	c := testClient(srv.URL, f)
	return srv, c
}

func testClient(base string, f *netfault.Fault) *Client {
	hc := http.DefaultClient
	if f != nil {
		hc = &http.Client{Transport: f}
	}
	c := NewClient(context.Background(), base, hc)
	c.Retry.Sleep = func(time.Duration) {}
	c.HedgeDelay = -1 // tests opt in explicitly
	c.Timeout = 10 * time.Second
	return c
}

func testResult() sim.Result {
	return sim.Result{
		Workload:  "OLTP-DB2",
		Mechanism: "tifs",
		Cycles:    123_456,
	}
}

func TestBlobRoundTrip(t *testing.T) {
	_, c := newRig(t, nil)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping: %v", err)
	}

	want := testResult()
	if _, ok := c.GetResult("k1"); ok {
		t.Fatal("hit before any put")
	}
	if c.HasResult("k1") {
		t.Fatal("has before any put")
	}
	c.PutResult("k1", want)
	got, ok := c.GetResult("k1")
	if !ok || got.Workload != want.Workload || got.Cycles != want.Cycles {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	if !c.HasResult("k1") {
		t.Fatal("HasResult false after put")
	}

	recs := [][]trace.MissRecord{{{Seq: 1}}, {{Seq: 2}, {Seq: 3, Branches: 4}}}
	c.PutMissTraces("t1", recs)
	gotRecs, ok := c.GetMissTraces("t1")
	if !ok || len(gotRecs) != 2 || len(gotRecs[1]) != 2 {
		t.Fatalf("miss traces round trip: ok=%v got=%v", ok, gotRecs)
	}
	if !c.HasMissTraces("t1") || c.HasMissTraces("t2") {
		t.Fatal("HasMissTraces wrong")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestResultAndTraceKeysDoNotCollide: the kind byte keeps the two
// namespaces apart even for an identical key string.
func TestResultAndTraceKeysDoNotCollide(t *testing.T) {
	_, c := newRig(t, nil)
	c.PutResult("same-key", testResult())
	if c.HasMissTraces("same-key") {
		t.Fatal("a result put satisfied a miss-trace lookup")
	}
	if _, ok := c.GetMissTraces("same-key"); ok {
		t.Fatal("cross-kind get hit")
	}
}

// TestTransientFaultsHeal: one dropped connection, one injected 503,
// and one torn response body each heal under retry with no caller-
// visible failure.
func TestTransientFaultsHeal(t *testing.T) {
	f := netfault.New(nil,
		netfault.Rule{Mode: netfault.ModeDrop, Method: "PUT", Nth: 1},
		netfault.Rule{Mode: netfault.ModeStatus, Status: 503, Method: "GET", Path: "/v1/blob", Nth: 1},
		netfault.Rule{Mode: netfault.ModeTornBody, Method: "GET", Path: "/v1/blob", Nth: 2},
	)
	_, c := newRig(t, f)
	want := testResult()
	c.PutResult("k", want) // PUT #1 dropped, retry lands it
	got, ok := c.GetResult("k")
	if !ok || got.Cycles != want.Cycles {
		t.Fatalf("get through faults: ok=%v got=%+v", ok, got)
	}
	s := c.Stats()
	if s.Retries == 0 {
		t.Error("faults healed without any retry being counted")
	}
	if c.QueueDepth() != 0 {
		t.Errorf("transient faults left %d queued write-backs", c.QueueDepth())
	}
}

// TestBreakerDegradesAndRecovers: a dead server opens the breaker after
// BreakAfter failed ops; while open, gets miss instantly and puts queue;
// recovery closes the breaker on the probe and Flush reconciles the
// queued write-backs onto the server.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	handler := NewServer(st, dir).Handler()
	down := true
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		dead := down
		mu.Unlock()
		if dead {
			// The shape of a crashed process behind a live listener.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		handler.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c := testClient(srv.URL, nil)
	c.Retry.Attempts = 1 // each op = one failure, for deterministic counting
	c.BreakAfter = 3
	c.Cooldown = time.Millisecond

	// Three failing ops open the breaker.
	for i := 0; i < 3; i++ {
		if _, ok := c.GetResult("k"); ok {
			t.Fatal("hit from a dead server")
		}
	}
	if s := c.Stats(); s.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d after %d failures, want 1", s.BreakerOpens, 3)
	}

	// Degraded: puts queue rather than touching the network, gets miss.
	c.PutResult("q1", testResult())
	c.PutResult("q2", testResult())
	c.PutResult("q1", testResult()) // dup: dedup'd by address
	if d := c.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d, want 2 (dedup'd)", d)
	}
	if _, ok := c.GetResult("q1"); ok {
		t.Fatal("degraded get returned a hit")
	}

	// Server recovers; after the cooldown the probe closes the breaker.
	mu.Lock()
	down = false
	mu.Unlock()
	time.Sleep(5 * time.Millisecond)
	// Each queued write-back lands on its own, so wait for both keys.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, ok1 := c.GetResult("q1")
		_, ok2 := c.GetResult("q2")
		if ok1 && ok2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
		c.Flush(context.Background())
	}
	got, ok := c.GetResult("q1")
	if !ok || got.Cycles != testResult().Cycles {
		t.Fatalf("queued write-back not reconciled: ok=%v", ok)
	}
	if _, ok := c.GetResult("q2"); !ok {
		t.Fatal("second queued write-back not reconciled")
	}
	// And the payloads really live on the server's store, not a client
	// cache: a fresh client sees them.
	c2 := testClient(srv.URL, nil)
	if _, ok := c2.GetResult("q1"); !ok {
		t.Fatal("write-back invisible to a fresh client")
	}
}

// TestHedgedReadBeatsStraggler: a read stalled by injected latency is
// overtaken by its hedge; the caller sees the fast path.
func TestHedgedReadBeatsStraggler(t *testing.T) {
	f := netfault.New(nil,
		netfault.Rule{Mode: netfault.ModeLatency, Latency: 2 * time.Second, Method: "GET", Path: "/v1/blob", Nth: 1})
	_, c := newRig(t, f)
	c.HedgeDelay = 10 * time.Millisecond
	c.PutResult("k", testResult())

	start := time.Now()
	_, ok := c.GetResult("k")
	elapsed := time.Since(start)
	if !ok {
		t.Fatal("hedged read missed")
	}
	if elapsed >= 2*time.Second {
		t.Fatalf("read took %v — the hedge never overtook the straggler", elapsed)
	}
	if s := c.Stats(); s.Hedges == 0 {
		t.Error("no hedge was counted")
	}
}

// TestFormatMismatchIsPermanentMiss: a server speaking a different
// store format degrades to misses without retry churn.
func TestFormatMismatchIsPermanentMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(headerFormat, "999")
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := testClient(srv.URL, nil)
	if err := c.Ping(context.Background()); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("ping against mismatched format: %v", err)
	}
	if _, ok := c.GetResult("k"); ok {
		t.Fatal("mismatched format returned a hit")
	}
	if s := c.Stats(); s.Retries != 0 {
		t.Errorf("permanent format mismatch burned %d retries", s.Retries)
	}
}

// TestServerRejectsMalformedAddressesAndBlindManifestWrites pins the
// permanent (4xx, non-retried) protocol errors.
func TestServerRejectsMalformedAddresses(t *testing.T) {
	srv, _ := newRig(t, nil)
	for _, path := range []string{"/v1/blob/zz", "/v1/blob/abcd"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
	// A manifest PUT with no precondition is refused.
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/manifest", strings.NewReader("x"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unconditional manifest PUT = %d, want 400", resp.StatusCode)
	}
}

// TestManifestCASSingleWinner: racing lease claims through two separate
// ManifestClients produce exactly one winner per shard — the ETag CAS
// is doing the flock's job.
func TestManifestCASSingleWinner(t *testing.T) {
	srv, _ := newRig(t, nil)
	g := testGridForLease(t)

	mk := func() *shard.Coordinator {
		mc := NewManifestClient(srv.URL, nil)
		mc.Retry.Sleep = func(time.Duration) {}
		c := shard.NewCoordinatorBackend(mc, g, 1)
		c.TTL = time.Hour
		return c
	}

	const racers = 8
	winners := make(chan string, racers)
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			owner := string(rune('A' + w))
			if _, ok, err := mk().ClaimAny(owner); err == nil && ok {
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
		t.Fatalf("remote claim race had %d winners (%v), want exactly 1", len(won), won)
	}

	// The winner renews and completes; a full lifecycle works remotely.
	c := mk()
	if err := c.Renew(0, won[0]); err != nil {
		t.Fatalf("remote renew: %v", err)
	}
	if err := c.Complete(0); err != nil {
		t.Fatalf("remote complete: %v", err)
	}
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards[0].State != shard.StateDone {
		t.Fatalf("shard state after remote lifecycle: %+v", m.Shards[0])
	}
}

// TestManifestUpdateRidesOutFaults: transient network faults inside the
// read and write halves of the CAS cycle heal under retry.
func TestManifestUpdateRidesOutFaults(t *testing.T) {
	f := netfault.New(nil,
		netfault.Rule{Mode: netfault.ModeDrop, Method: "GET", Path: "/v1/manifest", Nth: 1},
		netfault.Rule{Mode: netfault.ModeStatus, Status: 503, Method: "PUT", Path: "/v1/manifest", Nth: 1},
	)
	srv, _ := newRig(t, nil)
	mc := NewManifestClient(srv.URL, &http.Client{Transport: f})
	mc.Retry.Sleep = func(time.Duration) {}
	c := shard.NewCoordinatorBackend(mc, testGridForLease(t), 2)
	c.TTL = time.Hour
	if err := c.Claim(0, "alice"); err != nil {
		t.Fatalf("claim through manifest faults: %v", err)
	}
	m, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if l := m.Shards[0]; l.State != shard.StateClaimed || l.Owner != "alice" {
		t.Fatalf("shard 0 after faulted claim: %+v", l)
	}
}

// TestPutBlobAddressVerification: the server refuses uploads whose
// (kind, key) identity does not hash to the claimed address, carries no
// identity at all, or whose payload is not a valid encoding of its
// kind — all permanent 400s, so a buggy client cannot poison the
// content-addressed store for every other worker.
func TestPutBlobAddressVerification(t *testing.T) {
	srv, c := newRig(t, nil)
	payload := store.EncodeResult(testResult())
	addr := store.Address(store.KindResult, "good-key")
	addrHex := hex.EncodeToString(addr[:])
	put := func(path string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	kind := strconv.Itoa(int(store.KindResult))
	if got := put("/v1/blob/"+addrHex, payload); got != http.StatusBadRequest {
		t.Errorf("PUT without identity = %d, want 400", got)
	}
	if got := put("/v1/blob/"+addrHex+"?kind="+kind+"&key=wrong-key", payload); got != http.StatusBadRequest {
		t.Errorf("PUT with mismatched key = %d, want 400", got)
	}
	wrongKind := strconv.Itoa(int(store.KindMissTraces))
	if got := put("/v1/blob/"+addrHex+"?kind="+wrongKind+"&key=good-key", payload); got != http.StatusBadRequest {
		t.Errorf("PUT with mismatched kind = %d, want 400", got)
	}
	if got := put("/v1/blob/"+addrHex+"?kind="+kind+"&key=good-key", []byte("not a result")); got != http.StatusBadRequest {
		t.Errorf("PUT with undecodable payload = %d, want 400", got)
	}
	// None of the rejected uploads may have landed.
	if _, ok := c.GetResult("good-key"); ok {
		t.Fatal("a rejected upload poisoned the store")
	}
	// The verified path still works end to end (the client sends the
	// identity on every upload).
	if got := put("/v1/blob/"+addrHex+"?kind="+kind+"&key=good-key", payload); got != http.StatusNoContent {
		t.Errorf("verified PUT = %d, want 204", got)
	}
	if _, ok := c.GetResult("good-key"); !ok {
		t.Fatal("verified upload not readable")
	}
	// And the 400 is permanent for the client: no retry churn.
	before := c.Stats().Retries
	c.PutResult("ok", testResult())
	if after := c.Stats().Retries; after != before {
		t.Errorf("client PUT burned %d retries against a healthy server", after-before)
	}
}

// TestFlushFailureCountsQueuedOnce: a mid-flush failure re-queues the
// undelivered payloads without re-counting them as queued, so
// QueuedWrites == FlushedWrites + QueueDepth holds after any number of
// failed flushes.
func TestFlushFailureCountsQueuedOnce(t *testing.T) {
	// PUT #1 lands, every later PUT drops: the flush delivers exactly
	// one payload and fails on the second.
	f := netfault.New(nil,
		netfault.Rule{Mode: netfault.ModeDrop, Method: "PUT", Path: "/v1/blob", Nth: 2, Times: -1})
	_, c := newRig(t, f)
	c.Retry.Attempts = 1

	for _, key := range []string{"a", "b", "c"} {
		c.enqueue(queued{
			addr: store.Address(store.KindResult, key), kind: store.KindResult,
			key: key, payload: store.EncodeResult(testResult()),
		})
	}
	if s := c.Stats(); s.QueuedWrites != 3 {
		t.Fatalf("QueuedWrites = %d after 3 enqueues, want 3", s.QueuedWrites)
	}
	c.Flush(context.Background())
	s := c.Stats()
	if s.FlushedWrites != 1 {
		t.Errorf("FlushedWrites = %d, want 1 (only the first PUT landed)", s.FlushedWrites)
	}
	if d := c.QueueDepth(); d != 2 {
		t.Errorf("QueueDepth = %d after failed flush, want 2", d)
	}
	if s.QueuedWrites != s.FlushedWrites+uint64(c.QueueDepth()) {
		t.Errorf("counter drift: QueuedWrites=%d != FlushedWrites=%d + QueueDepth=%d",
			s.QueuedWrites, s.FlushedWrites, c.QueueDepth())
	}
	// A second failed flush must not drift the counters either.
	c.Flush(context.Background())
	s = c.Stats()
	if s.QueuedWrites != s.FlushedWrites+uint64(c.QueueDepth()) {
		t.Errorf("counter drift after second flush: QueuedWrites=%d != FlushedWrites=%d + QueueDepth=%d",
			s.QueuedWrites, s.FlushedWrites, c.QueueDepth())
	}
}

// TestCancelMidBackoffReturnsPromptly: cancelling the client's base
// context interrupts an in-flight retry/backoff schedule against a dead
// server instead of stalling shutdown for the full retry budget.
func TestCancelMidBackoffReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// Nothing listens on this address: every attempt fails fast with
	// ECONNREFUSED and the schedule spends its time in backoff sleeps.
	c := NewClient(ctx, "http://127.0.0.1:1", nil)
	c.Timeout = time.Second
	c.HedgeDelay = -1
	c.Retry.Attempts = 10
	c.Retry.Base = 500 * time.Millisecond
	c.Retry.Max = 2 * time.Second

	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		if _, ok := c.GetResult("k"); ok {
			t.Error("hit from a dead server")
		}
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("GetResult still blocked 2s after cancel — backoff schedule not interrupted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled get took %v", elapsed)
	}
	// Close after cancellation must not stall on undeliverable
	// write-backs either.
	closeStart := time.Now()
	c.Close()
	if elapsed := time.Since(closeStart); elapsed > 2*time.Second {
		t.Fatalf("Close after cancel took %v", elapsed)
	}
}

// TestManifestHead: HEAD /v1/manifest answers with the same ETag and
// Content-Length as GET, and no body — the cheap existence probe for
// sweep tooling.
func TestManifestHead(t *testing.T) {
	srv, _ := newRig(t, nil)

	resp, err := http.Head(srv.URL + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD before create = %d, want 404", resp.StatusCode)
	}

	body := "owner 0 claimed"
	req, _ := http.NewRequest(http.MethodPut, srv.URL+"/v1/manifest", strings.NewReader(body))
	req.Header.Set("If-None-Match", "*")
	put, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	put.Body.Close()
	if put.StatusCode != http.StatusNoContent {
		t.Fatalf("creating PUT = %d, want 204", put.StatusCode)
	}

	head, err := http.Head(srv.URL + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	headBody, _ := io.ReadAll(head.Body)
	head.Body.Close()
	if head.StatusCode != http.StatusOK {
		t.Fatalf("HEAD after create = %d, want 200", head.StatusCode)
	}
	if len(headBody) != 0 {
		t.Errorf("HEAD returned %d body bytes, want none", len(headBody))
	}
	if cl := head.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Errorf("HEAD Content-Length = %q, want %d", cl, len(body))
	}
	get, err := http.Get(srv.URL + "/v1/manifest")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if he, ge := head.Header.Get("ETag"), get.Header.Get("ETag"); he == "" || he != ge {
		t.Errorf("HEAD ETag %q != GET ETag %q", he, ge)
	}
}

// TestCloseWaitsForRecoveryFlush: the breaker's close transition
// launches an async Flush; a racing Close must wait for it rather than
// observe the queue mid-flush and report "0 undelivered" while the
// failed flush is still re-enqueueing its payloads.
func TestCloseWaitsForRecoveryFlush(t *testing.T) {
	// GETs are clean, every PUT drops: the breaker recovers on a read
	// probe but the recovery flush can never deliver.
	f := netfault.New(nil,
		netfault.Rule{Mode: netfault.ModeDrop, Method: "PUT", Path: "/v1/blob", Nth: 1, Times: -1})
	_, c := newRig(t, f)
	c.Retry.Attempts = 1
	c.BreakAfter = 1
	c.Cooldown = time.Millisecond

	c.PutResult("a", testResult()) // PUT fails: breaker opens, payload queues
	c.PutResult("b", testResult()) // degraded: queues
	c.PutResult("c", testResult())
	if d := c.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d before recovery, want 3", d)
	}
	time.Sleep(2 * time.Millisecond)
	// The probe GET succeeds (404 is a clean answer), closing the
	// breaker and launching the async recovery flush — whose PUTs all
	// fail and re-enqueue.
	if _, ok := c.GetResult("a"); ok {
		t.Fatal("unexpected hit")
	}
	err := c.Close()
	if err == nil {
		t.Fatal("Close reported success while write-backs were undeliverable")
	}
	if !strings.Contains(err.Error(), "3 write-backs") {
		t.Errorf("Close error %q does not account for all 3 write-backs", err)
	}
	if d := c.QueueDepth(); d != 3 {
		t.Errorf("queue depth %d after Close, want 3 (nothing delivered, nothing lost)", d)
	}
	s := c.Stats()
	if s.QueuedWrites != s.FlushedWrites+uint64(c.QueueDepth()) {
		t.Errorf("counter drift: QueuedWrites=%d != FlushedWrites=%d + QueueDepth=%d",
			s.QueuedWrites, s.FlushedWrites, c.QueueDepth())
	}
}

// testGridForLease builds a tiny real grid for coordinator tests.
func testGridForLease(t *testing.T) shard.Grid {
	t.Helper()
	spec, ok := workload.ByName("OLTP-DB2")
	if !ok {
		t.Fatal("workload OLTP-DB2 missing")
	}
	var g shard.Grid
	for _, events := range []uint64{1_000, 2_000} {
		g.Jobs = append(g.Jobs, engine.Job{
			Spec:  spec,
			Scale: workload.ScaleSmall,
			Config: sim.Config{
				EventsPerCore: events,
				Mechanism:     sim.Baseline(),
			},
		})
	}
	return g
}
