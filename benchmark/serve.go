package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"picl/internal/exp"
	"picl/internal/serve"
	"picl/internal/sim"
)

// serve-mixed: daemon A warms a store and exits; daemon B boots on it
// and answers /run requests, warm hits beside rare cold cells, from a
// closed loop of serveConns callers, each sending its next request when
// the last answer is in. The loop is closed rather than open at a fixed
// rate: at a rate the two CPUs serve with time to spare they idle between
// requests, waking an idle vCPU of the shared host costs a different
// amount from one minute to the next, and an open loop's latency from
// due time measured that (its p90 moved 12-45% between runs).
const (
	serveFactor    = 1024
	serveEpochs    = 2
	serveConns     = 2    // client connections (and goroutines)
	serveBatch     = 256  // requests per closed-loop batch
	serveColdEvery = 1024 // on average one request in this many is a cold cell
)

// cell is one /run request target.
type cell struct {
	scheme, bench string
	epochs        int
}

func (c cell) String() string { return fmt.Sprintf("%s/%s/e%d", c.scheme, c.bench, c.epochs) }

func (c cell) path() string {
	return fmt.Sprintf("/run?scheme=%s&bench=%s&epochs=%d", c.scheme, c.bench, c.epochs)
}

// warmCells is the warm set: picl and journal over every benchmark.
func warmCells(quick bool) []cell {
	var cs []cell
	for _, s := range []string{"picl", "journal"} {
		for _, b := range benchList(quick) {
			cs = append(cs, cell{s, b, serveEpochs})
		}
	}
	return cs
}

// coldCells is the rest of the schemes x benchmarks x epochs {1,2,3}
// grid, in a seed-shuffled order; each is requested at most once.
func coldCells(seed int64, quick bool) []cell {
	warm := map[cell]bool{}
	for _, c := range warmCells(quick) {
		warm[c] = true
	}
	var cs []cell
	for _, s := range sim.SchemeNames() {
		for _, b := range benchList(quick) {
			for ep := 1; ep <= 3; ep++ {
				if c := (cell{s, b, ep}); !warm[c] {
					cs = append(cs, c)
				}
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// daemon is a spawned picl-simd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // Wait's result, valid after exited closes
}

// urlWatcher receives the daemon's stdout and reports its listen URL.
type urlWatcher struct {
	urls chan string // the listen URL, at most once; not guarded by mu
	mu   sync.Mutex
	buf  []byte
}

func (w *urlWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if _, rest, ok := strings.Cut(line, "listening on "); ok {
			select {
			case w.urls <- strings.Fields(rest)[0]:
			default:
			}
		}
	}
}

// spawnDaemon boots picl-simd on store and returns once it has answered
// /healthz with 200; boot is the time from exec to that answer.
func spawnDaemon(e *env, store string, client *http.Client) (*daemon, time.Duration, error) {
	w := &urlWatcher{urls: make(chan string, 1)}
	cmd := exec.Command(e.simd, "-addr", "127.0.0.1:0", "-store", store,
		"-factor", strconv.Itoa(serveFactor), "-epochs", strconv.Itoa(serveEpochs),
		"-j", strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = w, e.log
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.url = <-w.urls:
	case <-d.exited:
		return nil, 0, fmt.Errorf("picl-simd exited during boot: %v", d.err)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, errors.New("picl-simd printed no listen address within 30s")
	}
	for {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t), nil
			}
		}
		if time.Since(t) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("picl-simd /healthz not 200 within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the daemon to exit (SIGKILL after 15s).
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return d.err
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}}
}

// fetch GETs one cell and checks X-Picl-Digest against the body.
func fetch(client *http.Client, url string) (digest, source string, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", "", fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	sum := sha256.Sum256(body)
	digest = hex.EncodeToString(sum[:])
	if h := resp.Header.Get("X-Picl-Digest"); h != digest {
		return "", "", fmt.Errorf("X-Picl-Digest %q does not match the body's %s", h, digest)
	}
	return digest, resp.Header.Get("X-Picl-Source"), nil
}

// sample is one request of a closed loop.
type sample struct {
	Sent, Done time.Time
	Err        error
}

func (s sample) latency() time.Duration { return s.Done.Sub(s.Sent) }

// closedLoop sends requests 0..n-1 from conns workers; a worker sends
// the next unsent request as soon as the answer to its last one is in.
func closedLoop(n, conns int, send func(conn, i int) error) []sample {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sent := time.Now()
				err := send(c, i)
				samples[i] = sample{Sent: sent, Done: time.Now(), Err: err}
			}
		}(c)
	}
	wg.Wait()
	return samples
}

// loadResult summarizes the requests sent to a daemon.
type loadResult struct {
	all, computed, hitRTT []float64    // µs
	byParity              [2][]float64 // all, split by request id parity
	sources               map[string]int
	ok, failed            int
	busy                  time.Duration // time spent in batches
	issues                []string
}

// serveRun is the shared part of the untraced and traced runs: a warm
// store, daemon B on it, the seeded request plan and what the requests
// got back.
type serveRun struct {
	e       *env
	store   string
	warm    map[cell]string // warm cell -> digest
	digests map[cell]string // every cell answered so far -> digest
	b       *daemon
	client  *http.Client
	rng     *rand.Rand
	warmSet []cell
	cold    []cell
	sent    int // requests planned and sent so far: the next request id
	traced  bool
	lr      loadResult
}

func (s *serveRun) close() {
	if s.b != nil {
		s.b.stop()
	}
	os.RemoveAll(s.store)
}

// plan draws the next n requests from the seed: uniform warm hits and,
// one in serveColdEvery on average, the next unused cold cell. Request
// serveBatch/2 is always cold, so that even a short run exercises the
// computed path.
func (s *serveRun) plan(n int) []cell {
	p := make([]cell, n)
	for i := range p {
		cold := s.rng.Intn(serveColdEvery) == 0 || s.sent+i == serveBatch/2
		if cold && len(s.cold) > 0 {
			p[i], s.cold = s.cold[0], s.cold[1:]
			continue
		}
		p[i] = s.warmSet[s.rng.Intn(len(s.warmSet))]
	}
	return p
}

// batch sends the next serveBatch requests of the plan to daemon B in a
// closed loop. Every response's digest must match the body and every
// earlier answer for the same cell; warm cells must be hits with their
// warm digests. A traced run records a span for every odd-numbered
// request, so the even ones measure the same load untraced.
func (s *serveRun) batch() {
	plan, base := s.plan(serveBatch), s.sent
	s.sent += len(plan)
	sources := make([]string, len(plan))
	var mu sync.Mutex
	send := func(conn, i int) error {
		t := time.Now()
		dg, src, err := fetch(s.client, s.b.url+plan[i].path())
		if s.traced && (base+i)%2 == 1 {
			s.e.spans.add("load.request "+plan[i].scheme, -1, int64(base+i), conn+1, t, time.Now())
		}
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			if want, ok := s.digests[plan[i]]; ok && want != dg {
				err = fmt.Errorf("%v: digest %s, earlier %s", plan[i], dg[:12], want[:12])
			} else if _, isWarm := s.warm[plan[i]]; isWarm && src != serve.SourceHit.String() {
				err = fmt.Errorf("%v: warm cell served as %q", plan[i], src)
			}
			s.digests[plan[i]] = dg
		}
		if err != nil && len(s.lr.issues) < 5 {
			s.lr.issues = append(s.lr.issues, err.Error())
		}
		sources[i] = src
		return err
	}
	t := time.Now()
	samples := closedLoop(len(plan), serveConns, send)
	lr := &s.lr
	lr.busy += time.Since(t)
	for i, smp := range samples {
		if smp.Err != nil {
			lr.failed++
			continue
		}
		lr.ok++
		lr.sources[sources[i]]++
		us := float64(smp.latency().Nanoseconds()) / 1e3
		lr.all = append(lr.all, us)
		lr.byParity[(base+i)%2] = append(lr.byParity[(base+i)%2], us)
		if sources[i] == serve.SourceHit.String() {
			lr.hitRTT = append(lr.hitRTT, us)
		} else {
			lr.computed = append(lr.computed, us)
		}
	}
}

// finish stops daemon B and records the requests' tally.
func (s *serveRun) finish() error {
	err := s.b.stop()
	s.b = nil
	s.e.rep.ops(s.lr.ok+s.lr.failed, s.lr.failed)
	if len(s.lr.issues) > 0 {
		fmt.Fprintf(s.e.log, "serve-mixed: %d failed requests, e.g. %s\n", s.lr.failed, strings.Join(s.lr.issues, "; "))
	}
	switch {
	case err != nil:
		return fmt.Errorf("daemon B: %w", err)
	case s.lr.ok == 0:
		return errors.New("no request succeeded")
	}
	return nil
}

// startServe warms a store through daemon A and checks the warm digests.
func startServe(e *env, traced bool) (*serveRun, error) {
	store, err := os.MkdirTemp("", "picl-bench-serve-")
	if err != nil {
		return nil, err
	}
	s := &serveRun{e: e, store: store, warm: map[cell]string{}, digests: map[cell]string{},
		client: newClient(), rng: rand.New(rand.NewSource(e.seed)), warmSet: warmCells(e.quick),
		cold: coldCells(e.seed, e.quick), traced: traced, lr: loadResult{sources: map[string]int{}}}
	a, _, err := spawnDaemon(e, store, s.client)
	if err != nil {
		s.close()
		return nil, err
	}
	var mu sync.Mutex
	var warmErr error
	var wg sync.WaitGroup
	work := make(chan cell)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				dg, _, err := fetch(s.client, a.url+c.path())
				mu.Lock()
				if err != nil && warmErr == nil {
					warmErr = err
				}
				s.warm[c] = dg
				mu.Unlock()
			}
		}()
	}
	for _, c := range s.warmSet {
		work <- c
	}
	close(work)
	wg.Wait()
	if err := a.stop(); err != nil {
		warmErr = errors.Join(warmErr, fmt.Errorf("daemon A: %w", err))
	}
	if warmErr != nil {
		s.close()
		return nil, fmt.Errorf("warming: %w", warmErr)
	}
	bad := []string{}
	for _, c := range s.warmSet {
		if want, ok := e.golden.ServeWarm[c.String()]; !ok || want != s.warm[c] {
			bad = append(bad, c.String())
		}
		s.digests[c] = s.warm[c]
	}
	e.rep.check(fmt.Sprintf("serve warm-cell digests golden (%d cells)", len(s.warmSet)), len(bad) == 0,
		strings.Join(bad, " "))
	return s, nil
}

// serveQuantile is the quantile of /run round trip that op_latency_us
// reports. Nearly every request is a hit, which does like work; the
// median and the tail move with how busy the shared host's CPUs are
// (the median by 5-18% between runs), the fastest tenth by 3-4%. The
// tail and the cold cells have run_p90_us and computed_p50_ms.
const serveQuantile = 0.1

func runServe(e *env) error {
	s, err := startServe(e, false)
	if err != nil {
		return err
	}
	defer s.close()
	var rss *rssSampler
	setups, err := measure(e.budget(), func(i int) (time.Duration, error) {
		// Set-up: boot a daemon on the warm store. The first is daemon B,
		// which takes the requests; the others boot while B idles between
		// batches, and stop again.
		d, boot, err := spawnDaemon(e, s.store, s.client)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			s.b, rss = d, sampleRSS(d.cmd.Process.Pid)
			return boot, nil
		}
		if err := d.stop(); err != nil {
			return 0, fmt.Errorf("daemon %d: %w", i, err)
		}
		return boot, nil
	}, func() error {
		s.batch()
		return nil
	})
	var rssMB Metric
	if rss != nil {
		rssMB = rss.median()
	}
	if err != nil {
		return err
	}
	peak := peakRSS(s.b.cmd.Process.Pid)
	if err := s.finish(); err != nil {
		return err
	}
	lr := s.lr
	e.rep.setE2E(setups, quantile(lr.all, serveQuantile), len(lr.all), rssMB, peak)
	e.rep.named("run_p50_us", quantile(lr.all, 0.5), "us")
	e.rep.named("run_p90_us", quantile(lr.all, 0.9), "us")
	e.rep.named("achieved_rps", float64(lr.ok)/lr.busy.Seconds(), "1/s")
	if len(lr.computed) > 0 {
		e.rep.named("computed_p50_ms", quantile(lr.computed, 0.5)/1e3, "ms")
	} else {
		e.rep.Named["computed_p50_ms"] = Metric{Unit: "ms", Skipped: "no cold request completed"}
	}
	e.rep.info("run_p99_us", quantile(lr.all, 0.99), "us")

	e.rep.info("cold_requests", float64(len(lr.computed)), "count")
	return nil
}

func tracedServe(e *env, layers map[string]Metric) error {
	const src = "serve-mixed"
	s, err := startServe(e, true)
	if err != nil {
		return err
	}
	defer s.close()
	// The in-process computes get cold cells no request will use.
	computes := 4
	if e.quick {
		computes = 1
	}
	spare := s.cold[len(s.cold)-computes:]
	s.cold = s.cold[:len(s.cold)-computes]
	if s.b, _, err = spawnDaemon(e, s.store, s.client); err != nil {
		return err
	}
	for start := time.Now(); s.sent == 0 || time.Since(start) < e.budget(); {
		s.batch()
	}
	if err := s.finish(); err != nil {
		return err
	}
	lr := s.lr

	inproc, err := serveInProcess(e, s, spare)
	if err != nil {
		return err
	}
	for name, m := range inproc {
		layer(layers, name, m.Value, m.Unit, src)
	}
	layer(layers, "serve.source_frac.hit", float64(lr.sources[serve.SourceHit.String()])/float64(lr.ok), "frac", src)
	layer(layers, "serve.source_frac.computed", float64(lr.sources[serve.SourceComputed.String()])/float64(lr.ok), "frac", src)
	layer(layers, "serve.client_overhead_us", quantile(lr.hitRTT, 0.5)-inproc["serve.handler_hit_us"].Value, "us", src)
	layer(layers, "trace_overhead_frac", quantile(lr.byParity[1], 0.5)/quantile(lr.byParity[0], 0.5)-1, "frac", src)
	return nil
}

// serveInProcess times the serving layers' public functions in this
// process, on the store daemon B left behind (B has exited); the cold
// cells in spare are computed.
func serveInProcess(e *env, s *serveRun, spare []cell) (map[string]Metric, error) {
	st := &storeTimer{spans: e.spans, parent: -1}
	store, err := serve.OpenStore(s.store, st)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	runner := exp.NewRunner(scaleAt(serveFactor, serveEpochs))
	srv := serve.NewServer(runner, store, nil)
	warm := warmCells(e.quick)
	reps := 2000
	if e.quick {
		reps = 200
	}
	out := map[string]Metric{}
	timeIt := func(name, unit string, scale float64, n int, f func(i int) error) error {
		t := time.Now()
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		out[name] = Metric{Value: float64(time.Since(t).Nanoseconds()) / float64(n) / scale, Unit: unit}
		return nil
	}
	var handlerErrs int
	err = timeIt("serve.handler_hit_us", "us", 1e3, reps, func(i int) error {
		c := warm[i%len(warm)]
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path(), nil))
		sum := sha256.Sum256(rec.Body.Bytes())
		if rec.Code != http.StatusOK || hex.EncodeToString(sum[:]) != s.warm[c] {
			handlerErrs++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	e.rep.check("serve in-process hits return the warm bytes", handlerErrs == 0,
		fmt.Sprintf("%d of %d differ", handlerErrs, reps))
	digests := make([][32]byte, len(warm))
	err = timeIt("serve.key_us", "us", 1e3, reps, func(i int) error {
		c := warm[i%len(warm)]
		key, err := runner.KeyFor(c.scheme, []string{c.bench}, exp.WithEpochs(c.epochs))
		digests[i%len(warm)] = serve.DigestOf(key.Canonical())
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timeIt("serve.store_get_us", "us", 1e3, reps, func(i int) error {
		if _, ok := store.Get(digests[i%len(digests)]); !ok {
			return errors.New("warm cell missing from the store")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Claims, computes and puts use cells and digests no request used.
	scratch := func(i int) [32]byte { return sha256.Sum256([]byte(fmt.Sprintf("benchmark scratch %d", i))) }
	claims := reps / 20
	err = timeIt("serve.claim_us", "us", 1e3, claims, func(i int) error {
		state, err := store.TryClaim(scratch(i))
		if err == nil && state != serve.ClaimAcquired {
			err = fmt.Errorf("claim state %d", state)
		}
		store.Release(scratch(i))
		return err
	})
	if err != nil {
		return nil, err
	}
	err = timeIt("serve.compute_ms", "ms", 1e6, len(spare), func(i int) error {
		c := spare[i]
		_, err := runner.Run(c.scheme, []string{c.bench}, exp.WithEpochs(c.epochs))
		return err
	})
	if err != nil {
		return nil, err
	}
	payload, _ := store.Get(digests[0])
	puts := reps / 20
	var put acc
	st.cur = &put
	err = timeIt("serve.put_ms", "ms", 1e6, puts, func(i int) error { return store.Put(scratch(claims+i), payload) })
	st.cur = nil
	if err != nil {
		return nil, err
	}
	out["storage.results_put_ms"] = Metric{Value: float64(put.child.Nanoseconds()) / float64(puts) / 1e6, Unit: "ms"}
	return out, nil
}
