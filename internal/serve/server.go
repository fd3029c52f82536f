package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"picl/internal/exp"
	"picl/internal/obs"
	"picl/internal/sim"
	"picl/internal/stats"
	"picl/internal/trace"
)

// Server is the experiment-serving daemon: an http.Handler exposing the
// runner's memoized, deterministic simulation cells as a service.
//
// Endpoints:
//
//	GET /run      one cell; canonical JSON body, X-Picl-Digest/-Source/-Key headers
//	GET /sweep    many cells; streams one NDJSON progress line per completed cell
//	GET /metrics  Prometheus text exposition of the server's counters
//	GET /trace    the server's event ring as Chrome trace_event JSON
//	GET /healthz  "ok" or "degraded"
//
// A /run response body is the canonical JSON of the cell payload — a
// pure function of the RunKey — so its bytes (and X-Picl-Digest) are
// identical whether the cell was a warm hit, computed here, computed by
// another process, or served by a peer replica. Cache state travels in
// headers only.
type Server struct {
	// Runner executes and memoizes cells; its Jobs width is the /sweep
	// fan-out pool.
	Runner *exp.Runner
	// Store, if non-nil, persists results and coalesces computation
	// across processes. Nil serves from the in-process memo only.
	Store *Store
	// Peers, if non-nil, routes each cell to its rendezvous owner.
	Peers *Peers

	start    time.Time
	counters *stats.Counters
	mux      *http.ServeMux

	ringMu sync.Mutex
	ring   *obs.Ring
}

// NewServer assembles a daemon over the given runner. store and peers
// may be nil.
func NewServer(r *exp.Runner, store *Store, peers *Peers) *Server {
	s := &Server{
		Runner:   r,
		Store:    store,
		Peers:    peers,
		start:    time.Now(),
		counters: stats.NewCounters(),
		ring:     obs.NewRing(0),
		mux:      http.NewServeMux(),
	}
	if store != nil {
		store.OnDegrade = func(err error) {
			s.counters.Add("degraded", 1)
			s.emit(obs.Event{Kind: obs.KindServeDegraded, Time: s.nowCycles()})
		}
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/sweep", s.handleSweep)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Requests reports how many /run cells have been served (shutdown line).
func (s *Server) Requests() uint64 { return s.counters.Get("requests_total") }

// nowCycles stamps server events: wall microseconds since boot scaled
// by the 2 GHz cycle rate the Chrome exporter divides back out, so the
// serve track renders in real microseconds alongside nothing — server
// events never mix with a simulation's ring.
func (s *Server) nowCycles() uint64 {
	return uint64(time.Since(s.start).Microseconds()) * 2000
}

// emit records one server event (the ring is shared by handlers, unlike
// a machine-owned simulation ring, so it takes the lock).
func (s *Server) emit(ev obs.Event) {
	s.ringMu.Lock()
	s.ring.Event(ev)
	s.ringMu.Unlock()
}

// emitClaim counts one obs.KindServeClaim action (1, 2 or 4; code 3,
// the retired lease steal, is never emitted).
func (s *Server) emitClaim(action uint64) {
	s.counters.Add("claim_"+[...]string{1: "acquired", 2: "waited", 4: "abandoned"}[action], 1)
	s.emit(obs.Event{Kind: obs.KindServeClaim, Time: s.nowCycles(), A: action})
}

// cellRequest is one parsed /run query.
type cellRequest struct {
	Scheme  string
	Benches []string
	Opts    []exp.Opt
	Epochs  int // 0 = runner default
}

// parseCell validates the query parameters of /run and /sweep for a
// runner whose epochs are epochInstr instructions long.
func parseCell(q url.Values, epochInstr uint64) (cellRequest, error) {
	cr := cellRequest{Scheme: q.Get("scheme")}
	if cr.Scheme == "" {
		cr.Scheme = "picl"
	}
	ok := false
	for _, name := range sim.SchemeNames() {
		if name == cr.Scheme {
			ok = true
			break
		}
	}
	if !ok {
		return cr, fmt.Errorf("unknown scheme %q (have %v)", cr.Scheme, sim.SchemeNames())
	}
	bench := q.Get("bench")
	if bench == "" {
		bench = "gcc"
	}
	cr.Benches = strings.Split(bench, ",")
	for _, b := range cr.Benches {
		if _, err := trace.ProfileFor(b); err != nil {
			return cr, err
		}
	}
	if es := q.Get("epochs"); es != "" {
		n, err := strconv.Atoi(es)
		if err != nil || n <= 0 {
			return cr, fmt.Errorf("bad epochs %q", es)
		}
		if _, err := exp.RunLength(n, epochInstr); err != nil {
			return cr, fmt.Errorf("bad epochs %q: %v", es, err)
		}
		cr.Epochs = n
		cr.Opts = append(cr.Opts, exp.WithEpochs(n))
	}
	return cr, nil
}

// cellPayload is the response body schema: every field is derived from
// the deterministic sim.Result, so marshalling it (encoding/json sorts
// map keys) yields canonical bytes for a given RunKey.
type cellPayload struct {
	Key           string            `json:"key"`
	Scheme        string            `json:"scheme"`
	Bench         string            `json:"bench"`
	Cores         int               `json:"cores"`
	Cycles        uint64            `json:"cycles"`
	Instructions  uint64            `json:"instructions"`
	Commits       uint64            `json:"commits"`
	ForcedCommits uint64            `json:"forced_commits"`
	StallCycles   uint64            `json:"stall_cycles"`
	NVMOps        map[string]uint64 `json:"nvm_ops"`
	NVMBytes      map[string]uint64 `json:"nvm_bytes"`
	Counters      map[string]uint64 `json:"counters"`
	LogPeakBytes  uint64            `json:"log_peak_bytes"`
	LogTotalBytes uint64            `json:"log_total_bytes"`
}

// marshalCell renders the canonical response body for (key, res).
func marshalCell(key exp.RunKey, res *sim.Result) []byte {
	p := cellPayload{
		Key:           key.Canonical(),
		Scheme:        res.Scheme,
		Bench:         key.Bench,
		Cores:         res.Cores,
		Cycles:        res.Cycles,
		Instructions:  res.Instructions,
		Commits:       res.Commits,
		ForcedCommits: res.ForcedCommit,
		StallCycles:   res.BoundaryStallCycles,
		NVMOps:        make(map[string]uint64),
		NVMBytes:      make(map[string]uint64),
		LogPeakBytes:  res.LogPeakBytes,
		LogTotalBytes: res.LogTotalBytes,
	}
	for op := 0; op < len(res.NVM.Count); op++ {
		p.NVMOps[nvmOpJSONName(op)] = res.NVM.Count[op]
		p.NVMBytes[nvmOpJSONName(op)] = res.NVM.Bytes[op]
	}
	if res.Counters != nil {
		p.Counters = res.Counters.Snapshot()
	}
	out, err := json.Marshal(p)
	if err != nil {
		// Every field is a plain value type; Marshal cannot fail.
		panic(err)
	}
	return append(out, '\n')
}

// nvmOpJSONName mirrors nvm.Op.String by index (serve sits above sim,
// but keeping the literal list here avoids importing the device model
// for a name table).
func nvmOpJSONName(op int) string {
	names := [...]string{
		"demand_read", "writeback", "rand_log_write", "rand_log_read",
		"seq_block_write", "page_copy",
	}
	if op < len(names) {
		return names[op]
	}
	return "op" + strconv.Itoa(op)
}

// cell resolves one run cell to its canonical payload bytes: warm memo,
// warm store, or the claim/compute/persist path.
func (s *Server) cell(ctx context.Context, cr cellRequest) ([]byte, Source, error) {
	key, err := s.Runner.KeyFor(cr.Scheme, cr.Benches, cr.Opts...)
	if err != nil {
		return nil, 0, err
	}
	d := DigestOf(key.Canonical())

	if res, ok := s.Runner.Cached(key); ok {
		return marshalCell(key, res), SourceHit, nil
	}
	if s.Store == nil {
		res, err := s.Runner.RunCtx(ctx, cr.Scheme, cr.Benches, cr.Opts...)
		if err != nil {
			return nil, 0, err
		}
		return marshalCell(key, res), SourceComputed, nil
	}

	waited := false
	for {
		if body, ok := s.Store.Get(d); ok {
			src := SourceHit
			if waited {
				src = SourceWaited
			}
			return body, src, nil
		}
		state, err := s.Store.TryClaim(d)
		if err != nil {
			// The claim directory itself is failing; compute without
			// coalescing rather than refusing the request.
			s.counters.Add("claim_errors", 1)
			state = ClaimAcquired
		}
		if state == ClaimAcquired {
			s.emitClaim(1)
			res, rerr := s.Runner.RunCtx(ctx, cr.Scheme, cr.Benches, cr.Opts...)
			if rerr != nil {
				s.Store.Release(d)
				if ctx.Err() != nil {
					s.emitClaim(4) // abandoned: client gone before compute
				}
				return nil, 0, rerr
			}
			body := marshalCell(key, res)
			s.persist(d, body)
			s.Store.Release(d)
			return body, SourceComputed, nil
		}
		if !waited {
			waited = true
			s.emitClaim(2)
		}
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(s.Store.Poll):
		}
		if n, err := s.Store.Refresh(); err == nil && n > 0 {
			s.emit(obs.Event{Kind: obs.KindServeStore, Time: s.nowCycles(), A: 2, B: uint64(n)})
		}
	}
}

// persist appends body to the durable store (no-op when degraded; the
// request is still served from the in-memory bytes).
func (s *Server) persist(d [32]byte, body []byte) {
	if s.Store == nil {
		return
	}
	if err := s.Store.Put(d, body); err == nil {
		if deg, _ := s.Store.Degraded(); !deg {
			s.counters.Add("store_appends", 1)
			s.emit(obs.Event{Kind: obs.KindServeStore, Time: s.nowCycles(), A: 1, B: uint64(len(body))})
		}
	}
}

// writeCell writes one resolved cell response.
func (s *Server) writeCell(w http.ResponseWriter, body []byte, src Source) {
	sum := sha256.Sum256(body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Picl-Digest", hex.EncodeToString(sum[:]))
	w.Header().Set("X-Picl-Source", src.String())
	w.Write(body)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	t0 := s.nowCycles()
	status := http.StatusOK
	var src Source
	defer func() {
		s.counters.Add("requests_total", 1)
		s.counters.Add("source_"+src.String(), 1)
		s.emit(obs.Event{
			Kind: obs.KindServeRequest, Time: t0, Dur: s.nowCycles() - t0,
			A: uint64(status), B: uint64(src),
		})
	}()
	q := r.URL.Query()
	cr, err := parseCell(q, s.Runner.Scale.EpochInstr)
	if err != nil {
		status = http.StatusBadRequest
		http.Error(w, err.Error(), status)
		return
	}

	// Rendezvous routing: forward to the cell's owner unless this
	// request already was forwarded (loop guard) or we own it. A dead
	// owner falls back to local compute — work stealing, not failure.
	if s.Peers != nil && q.Get("forwarded") == "" {
		key, kerr := s.Runner.KeyFor(cr.Scheme, cr.Benches, cr.Opts...)
		if kerr == nil {
			d := DigestOf(key.Canonical())
			if owner := s.Peers.Owner(hex.EncodeToString(d[:])); owner != s.Peers.Self {
				if body, perr := s.Peers.Forward(r.Context(), owner, "/run", q); perr == nil {
					src = SourcePeer
					s.writeCell(w, body, SourcePeer)
					return
				}
				s.counters.Add("peer_fallbacks", 1)
			}
		}
	}

	body, source, err := s.cell(r.Context(), cr)
	if err != nil {
		if r.Context().Err() != nil {
			status = 499 // client closed request; nothing to write
			return
		}
		status = http.StatusInternalServerError
		http.Error(w, err.Error(), status)
		return
	}
	src = source
	s.writeCell(w, body, source)
}

// sweepLine is one streamed /sweep progress record.
type sweepLine struct {
	Index  int    `json:"index"`
	Scheme string `json:"scheme"`
	Bench  string `json:"bench"`
	Digest string `json:"digest,omitempty"`
	Source string `json:"source,omitempty"`
	Err    string `json:"err,omitempty"`
}

// handleSweep fans a scheme×bench cross product across the runner's
// worker pool and streams one JSON line per completed cell (completion
// order), then a summary line whose combined digest hashes the per-cell
// digests in request-index order — deterministic however the pool
// interleaved.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	schemes := strings.Split(defaulted(q.Get("schemes"), "picl"), ",")
	benches := strings.Split(defaulted(q.Get("benches"), "gcc"), ",")
	var cells []cellRequest
	for _, sc := range schemes {
		for _, b := range benches {
			v := url.Values{"scheme": {sc}, "bench": {b}}
			if e := q.Get("epochs"); e != "" {
				v.Set("epochs", e)
			}
			cr, err := parseCell(v, s.Runner.Scale.EpochInstr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			cells = append(cells, cr)
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	writeLine := func(l sweepLine) {
		wmu.Lock()
		enc.Encode(l)
		if flusher != nil {
			flusher.Flush()
		}
		wmu.Unlock()
	}

	digests := make([]string, len(cells))
	failures := 0
	var fmu sync.Mutex
	workers := s.Runner.Jobs
	if workers <= 0 || workers > len(cells) {
		workers = len(cells)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cr := cells[i]
				line := sweepLine{Index: i, Scheme: cr.Scheme, Bench: strings.Join(cr.Benches, ",")}
				body, src, err := s.cell(r.Context(), cr)
				if err != nil {
					line.Err = err.Error()
					fmu.Lock()
					failures++
					fmu.Unlock()
				} else {
					sum := sha256.Sum256(body)
					digests[i] = hex.EncodeToString(sum[:])
					line.Digest = digests[i]
					line.Source = src.String()
				}
				writeLine(line)
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-r.Context().Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	h := sha256.New()
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	writeLine(sweepLine{Index: -1, Digest: hex.EncodeToString(h.Sum(nil)),
		Scheme: strconv.Itoa(len(cells) - failures), Bench: strconv.Itoa(failures)})
}

func defaulted(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.counters.Snapshot()
	if s.Store != nil {
		m["store_records"] = uint64(s.Store.Len())
		m["store_blocks"] = s.Store.Blocks()
		if deg, _ := s.Store.Degraded(); deg {
			m["store_degraded"] = 1
		} else {
			m["store_degraded"] = 0
		}
	}
	m["uptime_seconds"] = uint64(time.Since(s.start).Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, stats.PromText("picl_serve_", m))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	s.ringMu.Lock()
	events := s.ring.Events()
	s.ringMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, events)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Store != nil {
		if deg, _ := s.Store.Degraded(); deg {
			fmt.Fprintln(w, "degraded")
			return
		}
	}
	fmt.Fprintln(w, "ok")
}
