package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"picl/internal/exp"
	"picl/internal/golden"
	"picl/internal/trace"
)

// testRunner builds a sub-second runner: 2 epochs at 1/1024 scale.
func testRunner() *exp.Runner {
	r := exp.NewRunner(exp.Scale{
		Name:            "serve-test",
		Factor:          1.0 / 1024,
		EpochInstr:      30_000_000 / 1024,
		Epochs:          2,
		MulticoreEpochs: 2,
	})
	r.Jobs = 2
	return r
}

func newTestServer(t *testing.T) (*Server, *Store) {
	t.Helper()
	st, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.Poll = 2 * time.Millisecond
	return NewServer(testRunner(), st, nil), st
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func TestRunEndpointCanonicalBody(t *testing.T) {
	s, _ := newTestServer(t)
	first := get(t, s, "/run?scheme=picl&bench=gcc")
	if first.Code != http.StatusOK {
		t.Fatalf("first /run = %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Picl-Source"); got != "computed" {
		t.Fatalf("cold source = %q, want computed", got)
	}
	sum := sha256.Sum256(first.Body.Bytes())
	if got := first.Header().Get("X-Picl-Digest"); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("digest header %q does not match body", got)
	}
	var payload cellPayload
	if err := json.Unmarshal(first.Body.Bytes(), &payload); err != nil {
		t.Fatalf("body is not JSON: %v", err)
	}
	if payload.Scheme != "picl" || payload.Commits != 2 || payload.Cycles == 0 {
		t.Fatalf("implausible payload: %+v", payload)
	}
	if !strings.HasPrefix(payload.Key, "picl-runkey-v1|") {
		t.Fatalf("payload key %q not canonical", payload.Key)
	}

	second := get(t, s, "/run?scheme=picl&bench=gcc")
	if got := second.Header().Get("X-Picl-Source"); got != "hit" {
		t.Fatalf("warm source = %q, want hit", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatal("hit body differs from computed body")
	}
}

func TestRunEndpointBadParams(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := get(t, s, "/run?scheme=nonsense"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown scheme = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/run?epochs=zero"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad epochs = %d, want 400", rec.Code)
	}
	if rec := get(t, s, "/run?bench=no-such-bench"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown bench = %d, want 400", rec.Code)
	}
}

// TestRunRefusesOverflowingEpochs: an epoch count whose run length does
// not fit a uint64 is a 400 on /run and /sweep, where it once wrapped
// (2^62 epochs of 29296 instructions is 0, and the engine ran its
// 8-epoch default). The largest count that fits is accepted.
func TestRunRefusesOverflowingEpochs(t *testing.T) {
	s, _ := newTestServer(t)
	for _, target := range []string{"/run?epochs=4611686018427387904", "/sweep?epochs=4611686018427387904"} {
		rec := get(t, s, target)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "overflows 64 bits") {
			t.Errorf("%s = %d %q, want 400 naming the overflow", target, rec.Code, rec.Body)
		}
	}
	epochInstr := s.Runner.Scale.EpochInstr
	fits := math.MaxUint64 / epochInstr
	for _, c := range []struct {
		epochs uint64
		ok     bool
	}{{fits, true}, {fits + 1, false}} {
		_, err := parseCell(url.Values{"epochs": {strconv.FormatUint(c.epochs, 10)}}, epochInstr)
		if (err == nil) != c.ok {
			t.Errorf("%d epochs of %d instructions: parseCell error %v, want accepted %v", c.epochs, epochInstr, err, c.ok)
		}
	}
}

// TestRunIgnoresPreRegistryAddress: the address is the SHA-256 of the
// model registry's hash and the canonical key, so a result stored under
// the address of the key alone, sha256(Canonical()) — what every store
// written before the registry holds — is never served as a hit. The
// cell is recomputed, and with the model unchanged its bytes are the
// stored ones.
func TestRunIgnoresPreRegistryAddress(t *testing.T) {
	r := testRunner()
	key, err := r.KeyFor("picl", []string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	canon := key.Canonical()
	if DigestOf(canon) != sha256.Sum256([]byte(string(golden.Hash[:])+canon)) {
		t.Fatal("DigestOf is not sha256(golden.Hash || Canonical())")
	}
	want := get(t, NewServer(testRunner(), nil, nil), "/run?scheme=picl&bench=gcc").Body.Bytes()

	dir := t.TempDir()
	writer, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Put(sha256.Sum256([]byte(canon)), want); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := get(t, NewServer(r, st, nil), "/run?scheme=picl&bench=gcc")
	if got := rec.Header().Get("X-Picl-Source"); got != "computed" {
		t.Fatalf("source = %q, want computed: the pre-registry record was served", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("recomputed body differs from the stored one:\n%s\n%s", rec.Body, want)
	}
	if body, ok := st.Get(DigestOf(canon)); !ok || !bytes.Equal(body, want) {
		t.Fatal("the recomputed body is not stored under the new address")
	}
}

// TestRunServedFromForeignStore: a result another process persisted is
// served as a hit without simulating (the runner memo is cold).
func TestRunServedFromForeignStore(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := testRunner()
	key, err := r.KeyFor("picl", []string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	d := DigestOf(key.Canonical())
	foreign := []byte(`{"key":"` + key.Canonical() + `","planted":true}` + "\n")
	if err := writer.Put(d, foreign); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(r, st, nil)
	rec := get(t, s, "/run?scheme=picl&bench=gcc")
	if rec.Code != http.StatusOK {
		t.Fatalf("/run = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Picl-Source"); got != "hit" {
		t.Fatalf("source = %q, want hit (store-served)", got)
	}
	if rec.Body.String() != string(foreign) {
		t.Fatal("store-served body is not the persisted bytes")
	}
}

// TestRunWaitsOnForeignClaim: with another process holding the claim,
// the request polls; when the holder persists and releases, the waiter
// serves the foreign bytes with Source waited.
func TestRunWaitsOnForeignClaim(t *testing.T) {
	s, st := newTestServer(t)
	r := s.Runner
	key, err := r.KeyFor("picl", []string{"gcc"})
	if err != nil {
		t.Fatal(err)
	}
	d := DigestOf(key.Canonical())
	// "Another process" takes the claim before our request arrives.
	if state, _ := st.TryClaim(d); state != ClaimAcquired {
		t.Fatal("setup claim failed")
	}

	type outcome struct {
		rec *httptest.ResponseRecorder
	}
	done := make(chan outcome)
	go func() {
		done <- outcome{get(t, s, "/run?scheme=picl&bench=gcc")}
	}()

	// Let the waiter enter its poll loop, then have the "holder" land
	// the result and release.
	time.Sleep(20 * time.Millisecond)
	holder, err := OpenStore(st.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	planted := []byte(`{"planted":"by-holder"}` + "\n")
	if err := holder.Put(d, planted); err != nil {
		t.Fatal(err)
	}
	holder.Close()
	st.Release(d)

	out := <-done
	if out.rec.Code != http.StatusOK {
		t.Fatalf("/run = %d", out.rec.Code)
	}
	if got := out.rec.Header().Get("X-Picl-Source"); got != "waited" {
		t.Fatalf("source = %q, want waited", got)
	}
	if out.rec.Body.String() != string(planted) {
		t.Fatal("waiter served bytes other than the holder's")
	}
}

// TestCancelledClientAbandonsClaim: a dead client's request declines
// the compute and leaves no claim file behind — the next requester
// claims a clean cell.
func TestCancelledClientAbandonsClaim(t *testing.T) {
	s, st := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cr, err := parseCell(url.Values{"scheme": {"picl"}, "bench": {"gcc"}}, s.Runner.Scale.EpochInstr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.cell(ctx, cr); err == nil {
		t.Fatal("cancelled cell returned no error")
	}
	key, _ := s.Runner.KeyFor("picl", []string{"gcc"})
	d := DigestOf(key.Canonical())
	if _, err := os.Stat(st.claimPath(d)); !os.IsNotExist(err) {
		t.Fatalf("abandoned claim left behind: %v", err)
	}
	if state, _ := st.TryClaim(d); state != ClaimAcquired {
		t.Fatal("cell not cleanly claimable after abandonment")
	}
	st.Release(d)
}

func TestSweepStreamsAndCombinedDigest(t *testing.T) {
	run := func(s *Server) (lines []sweepLine, combined string) {
		rec := get(t, s, "/sweep?schemes=picl,journal&benches=gcc")
		if rec.Code != http.StatusOK {
			t.Fatalf("/sweep = %d", rec.Code)
		}
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var l sweepLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			lines = append(lines, l)
		}
		last := lines[len(lines)-1]
		if last.Index != -1 {
			t.Fatalf("missing summary line, got %+v", last)
		}
		return lines, last.Digest
	}

	a, _ := newTestServer(t)
	linesA, digestA := run(a)
	if len(linesA) != 3 { // 2 cells + summary
		t.Fatalf("got %d lines, want 3", len(linesA))
	}
	for _, l := range linesA[:2] {
		if l.Err != "" || l.Digest == "" {
			t.Fatalf("cell line incomplete: %+v", l)
		}
	}
	// A second daemon (fresh store, fresh memo) produces the same
	// combined digest: the response bytes are a function of the keys.
	b, _ := newTestServer(t)
	_, digestB := run(b)
	if digestA != digestB {
		t.Fatalf("combined sweep digest differs across daemons: %s vs %s", digestA, digestB)
	}
}

func TestMetricsTraceHealthz(t *testing.T) {
	s, _ := newTestServer(t)
	get(t, s, "/run?scheme=picl&bench=gcc")

	m := get(t, s, "/metrics")
	for _, want := range []string{
		"picl_serve_requests_total 1",
		"picl_serve_source_computed 1",
		"picl_serve_store_records 1",
		"picl_serve_store_degraded 0",
		"picl_serve_claim_acquired 1",
	} {
		if !strings.Contains(m.Body.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, m.Body)
		}
	}

	tr := get(t, s, "/trace")
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	foundServe := false
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "serve_request" {
			foundServe = true
		}
	}
	if !foundServe {
		t.Fatal("/trace has no serve_request event")
	}

	if h := get(t, s, "/healthz"); h.Body.String() != "ok\n" {
		t.Fatalf("/healthz = %q", h.Body)
	}
}

// TestPeerForwardAndFallback runs two real replicas over one shared
// store directory: a cell owned by the other replica is forwarded
// (Source peer, identical bytes), and once the owner dies the same
// request is computed locally instead — work stealing, not an error.
func TestPeerForwardAndFallback(t *testing.T) {
	dir := t.TempDir()
	stA, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	stB, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stB.Close()

	srvA := NewServer(testRunner(), stA, nil)
	srvB := NewServer(testRunner(), stB, nil)
	tsA := httptest.NewServer(srvA)
	defer tsA.Close()
	tsB := httptest.NewServer(srvB)

	peers := []string{tsA.URL, tsB.URL}
	srvA.Peers = NewPeers(tsA.URL, peers)
	srvB.Peers = NewPeers(tsB.URL, peers)

	// Find a bench whose cell replica A does NOT own, so A must forward.
	runner := testRunner()
	var target string
	benchPool := trace.Benchmarks()
	for _, bench := range benchPool[:len(benchPool)/2] {
		key, err := runner.KeyFor("picl", []string{bench})
		if err != nil {
			continue
		}
		d := DigestOf(key.Canonical())
		if srvA.Peers.Owner(hex.EncodeToString(d[:])) == tsB.URL {
			target = bench
			break
		}
	}
	if target == "" {
		t.Fatal("rendezvous assigned every probe cell to A; hashing is degenerate")
	}

	resp, err := http.Get(tsA.URL + "/run?scheme=picl&bench=" + target)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded /run = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Picl-Source"); got != "peer" {
		t.Fatalf("source = %q, want peer", got)
	}

	// Direct ask to the owner returns the identical bytes (now warm).
	direct, err := http.Get(tsB.URL + "/run?scheme=picl&bench=" + target)
	if err != nil {
		t.Fatal(err)
	}
	directBody, _ := io.ReadAll(direct.Body)
	direct.Body.Close()
	if string(body) != string(directBody) {
		t.Fatal("peer-served bytes differ from the owner's")
	}

	// Kill the owner: A must fall back to local compute for a cold
	// B-owned cell rather than failing.
	tsB.Close()
	var coldTarget string
	for _, bench := range benchPool[len(benchPool)/2:] {
		key, err := runner.KeyFor("picl", []string{bench})
		if err != nil {
			continue
		}
		d := DigestOf(key.Canonical())
		if srvA.Peers.Owner(hex.EncodeToString(d[:])) == tsB.URL {
			coldTarget = bench
			break
		}
	}
	if coldTarget == "" {
		t.Skip("no probe cell owned by the dead replica")
	}
	resp2, err := http.Get(tsA.URL + "/run?scheme=picl&bench=" + coldTarget)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("fallback /run = %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Picl-Source"); got == "peer" {
		t.Fatal("dead peer reported as source")
	}
	if srvA.counters.Get("peer_fallbacks") == 0 {
		t.Fatal("fallback not counted")
	}
}

func TestRendezvousOwnerTotalAndSpread(t *testing.T) {
	p := NewPeers("http://a", []string{"http://a", "http://b", "http://c"})
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		d := DigestOf(strings.Repeat("x", i%17) + string(rune('a'+i%26)))
		owner := p.Owner(hex.EncodeToString(d[:]))
		if again := p.Owner(hex.EncodeToString(d[:])); again != owner {
			t.Fatal("Owner not deterministic")
		}
		counts[owner]++
	}
	for _, peer := range p.All {
		if counts[peer] == 0 {
			t.Fatalf("rendezvous never picked %s: %v", peer, counts)
		}
	}
}
