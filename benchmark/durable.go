package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"picl"
	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// durable-commit: one caller writes through a picl.Open store on real
// files and commits with Sync, over a footprint larger than the
// simulated caches.
const (
	durFootprint       = 1 << 16 // lines
	durWritesPerCommit = 64
)

func durLines(quick bool) int {
	if quick {
		return 1 << 10
	}
	return durFootprint
}

// durModel is the benchmark's own record of what the store must hold:
// line i's value as of the last successful Sync.
type durModel []uint64

// populate writes every line of a fresh store from the seed and closes
// it, leaving a store whose next Open has recovery work to do.
func populate(dir string, rng *rand.Rand, lines int) (durModel, error) {
	m, err := picl.Open(dir)
	if err != nil {
		return nil, err
	}
	model := make(durModel, lines)
	for i := range model {
		model[i] = rng.Uint64() | 1
		if err := m.Write(uint64(i)*mem.LineSize, model[i]); err != nil {
			m.Close()
			return nil, err
		}
		if i%1024 == 1023 {
			if err := m.CommitEpoch(); err != nil {
				m.Close()
				return nil, err
			}
		}
	}
	return model, m.Close()
}

// verify compares a recovered image with the model.
func (d durModel) verify(img picl.Image) error {
	for i, want := range d {
		if got := img.Read(uint64(i) * mem.LineSize); got != want {
			return fmt.Errorf("line %d recovered %#x, want %#x", i, got, want)
		}
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Synced here, untimed, so that the timed Open does not pay for
	// writing the copy back.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// durStores holds the populated store that every timed Open starts
// from, and the model of its contents.
type durStores struct {
	root      string
	populated durModel
}

func newDurStores(e *env) (*durStores, error) {
	root, err := os.MkdirTemp("", "picl-bench-durable-")
	if err != nil {
		return nil, err
	}
	model, err := populate(filepath.Join(root, "base"), rand.New(rand.NewSource(e.seed)), durLines(e.quick))
	if err != nil {
		os.RemoveAll(root)
		return nil, err
	}
	return &durStores{root: root, populated: model}, nil
}

// open times picl.Open (recovery + compaction) of a fresh copy of the
// populated store and checks what it recovered.
func (s *durStores) open(e *env, name string, opts ...picl.Option) (*picl.Machine, time.Duration, error) {
	dir := filepath.Join(s.root, name)
	if err := copyDir(filepath.Join(s.root, "base"), dir); err != nil {
		return nil, 0, err
	}
	t := time.Now()
	m, err := picl.Open(dir, opts...)
	d := time.Since(t)
	if err != nil {
		return nil, 0, err
	}
	img, _ := m.Recovered()
	err = s.populated.verify(img)
	e.rep.check("durable Open recovers the populated store ("+name+")", err == nil, errString(err))
	return m, d, nil
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// committer runs commits on one durable machine and keeps the model of
// what its store must hold.
type committer struct {
	m       *picl.Machine
	model   durModel
	rng     *rand.Rand
	hook    func(phase string, t time.Time) // traced runs: spans and attribution
	pending []durWrite

	syncUs, cycleUs []float64
	commits, failed int
}

type durWrite struct {
	line int
	v    uint64
}

// newCommitter starts a model from the populated store's contents; the
// commits' writes come from seed, so two committers with one seed
// commit identical work.
func newCommitter(m *picl.Machine, populated durModel, seed int64) *committer {
	return &committer{m: m, model: append(durModel(nil), populated...),
		rng: rand.New(rand.NewSource(seed + 1<<32)), pending: make([]durWrite, durWritesPerCommit)}
}

// commit runs durWritesPerCommit seeded writes, then Sync. A commit's
// latency is its Sync alone; the model takes the writes of a commit
// whose Sync succeeded.
func (c *committer) commit() {
	t0 := time.Now()
	ok := true
	for i := range c.pending {
		c.pending[i] = durWrite{c.rng.Intn(len(c.model)), c.rng.Uint64() | 1}
		if err := c.m.Write(uint64(c.pending[i].line)*mem.LineSize, c.pending[i].v); err != nil {
			ok = false
		}
	}
	t1 := time.Now()
	if c.hook != nil {
		c.hook("writes", t0)
	}
	if _, err := c.m.Sync(); err != nil {
		ok = false
	}
	t2 := time.Now()
	if c.hook != nil {
		c.hook("sync", t1)
	}
	c.commits++
	if !ok {
		c.failed++
		return
	}
	for _, w := range c.pending {
		c.model[w.line] = w.v
	}
	c.syncUs = append(c.syncUs, float64(t2.Sub(t1).Nanoseconds())/1e3)
	c.cycleUs = append(c.cycleUs, float64(t2.Sub(t0).Nanoseconds())/1e3)
}

// commitFor runs commits on each committer in turn until budget has
// elapsed.
func commitFor(budget time.Duration, cs ...*committer) {
	for start := time.Now(); cs[0].commits == 0 || time.Since(start) < budget; {
		for _, c := range cs {
			c.commit()
		}
	}
}

// closeAndVerify closes m, reopens its store, and checks Recovered()
// against the model of the synced writes.
func closeAndVerify(e *env, m *picl.Machine, model durModel) error {
	dir := m.DurablePath()
	if err := m.Close(); err != nil {
		return err
	}
	m2, err := picl.Open(dir)
	if err != nil {
		return err
	}
	img, _ := m2.Recovered()
	verr := model.verify(img)
	e.rep.check("durable reopen recovers every synced write", verr == nil, errString(verr))
	return m2.Close()
}

// durSyncQuantile is the quantile of Sync time that op_latency_us
// reports. Every commit syncs like work (64 writes), and fsync time on
// the shared disk swings with other tenants' I/O for minutes at a time,
// so the fastest percent is the commit's cost (9-10% apart between
// runs, where the p10 was 14-18% and the p90 37-64%); the median and
// tail are commit_p50_us and commit_p90_us.
const durSyncQuantile = 0.01

func runDurable(e *env) error {
	s, err := newDurStores(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.root)
	var c *committer
	rss := sampleRSS(0)
	setups, err := measure(e.budget(), func(i int) (time.Duration, error) {
		name := fmt.Sprintf("open%d", i)
		m, d, err := s.open(e, name)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			c = newCommitter(m, s.populated, e.seed)
			return d, nil
		}
		// Only the first store takes commits; the others are set up to be
		// timed, then closed and removed.
		if err := m.Close(); err != nil {
			return 0, err
		}
		return d, os.RemoveAll(filepath.Join(s.root, name))
	}, func() error {
		c.commit()
		return nil
	})
	rssMB := rss.median()
	if err != nil {
		if c != nil {
			c.m.Close()
		}
		return err
	}
	// Peak RSS is read before the closing check: reopening the store
	// reads its whole undo log, which grows with the number of commits,
	// and so with host speed.
	peak := peakRSS(0)
	e.rep.ops(c.commits, c.failed)
	if err := closeAndVerify(e, c.m, c.model); err != nil {
		return err
	}
	e.rep.setE2E(setups, quantile(c.syncUs, durSyncQuantile), len(c.syncUs), rssMB, peak)
	e.rep.named("commit_p50_us", quantile(c.syncUs, 0.5), "us")
	e.rep.named("commit_p90_us", quantile(c.syncUs, 0.9), "us")
	// Commits per second of committing: the set-ups between commits do
	// not count.
	busyUs := 0.0
	for _, us := range c.cycleUs {
		busyUs += us
	}
	e.rep.named("commits_per_s", float64(len(c.cycleUs))/busyUs*1e6, "1/s")
	e.rep.info("commit_p99_us", quantile(c.syncUs, 0.99), "us")
	return nil
}

// storeTimer is a storage.Wrapper that times every durable operation of
// a picl.Open store, attributing each to the facade call it ran inside.
type storeTimer struct {
	spans                                                   *spanLog
	parent                                                  int  // span id of the facade call in progress
	cur                                                     *acc // its accumulator
	logAppend, logSync, imgWrite, imgSync, mkSet, mkSyncDir acc
}

func (s *storeTimer) done(a *acc, name string, t time.Time) {
	end := time.Now()
	d := end.Sub(t)
	a.calls++
	a.add(d)
	if s.cur != nil {
		s.cur.child += d
		s.cur.children++
	}
	if name != "" {
		s.spans.add(name, s.parent, -1, 0, t, end)
	}
}

func (s *storeTimer) WrapLog(l storage.LogStore) storage.LogStore        { return &timedLog{l, s} }
func (s *storeTimer) WrapImage(im storage.ImageStore) storage.ImageStore { return &timedImage{im, s} }
func (s *storeTimer) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &timedMarker{mk, s}
}

type timedLog struct {
	storage.LogStore
	t *storeTimer
}

func (l *timedLog) AppendBlock(raw []byte) error {
	t := time.Now()
	err := l.LogStore.AppendBlock(raw)
	l.t.done(&l.t.logAppend, "storage.log_append", t)
	return err
}

func (l *timedLog) Sync() error {
	t := time.Now()
	err := l.LogStore.Sync()
	l.t.done(&l.t.logSync, "storage.log_fsync", t)
	return err
}

type timedImage struct {
	storage.ImageStore
	t *storeTimer
}

// WriteLine is one 8-byte positional write per line: counted and timed,
// but too frequent to keep as spans.
func (im *timedImage) WriteLine(l mem.LineAddr, w mem.Word) error {
	t := time.Now()
	err := im.ImageStore.WriteLine(l, w)
	im.t.done(&im.t.imgWrite, "", t)
	return err
}

func (im *timedImage) Sync() error {
	t := time.Now()
	err := im.ImageStore.Sync()
	im.t.done(&im.t.imgSync, "storage.image_fsync", t)
	return err
}

type timedMarker struct {
	storage.MarkerStore
	t *storeTimer
}

func (mk *timedMarker) Set(e mem.EpochID) error {
	t := time.Now()
	err := mk.MarkerStore.Set(e)
	mk.t.done(&mk.t.mkSet, "storage.marker_set", t)
	return err
}

func (mk *timedMarker) SyncDir() error {
	t := time.Now()
	err := mk.MarkerStore.SyncDir()
	mk.t.done(&mk.t.mkSyncDir, "storage.marker_syncdir", t)
	return err
}

func tracedDurable(e *env, layers map[string]Metric) error {
	const src = "durable-commit"
	s, err := newDurStores(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(s.root)

	// An untraced and a traced store take identical commits in turn, so
	// host-speed changes reach both alike.
	m, _, err := s.open(e, "untraced")
	if err != nil {
		return err
	}
	base := newCommitter(m, s.populated, e.seed)
	st := &storeTimer{spans: e.spans, parent: -1}
	tm, openD, err := s.open(e, "traced", picl.WithStoreWrapper(st))
	if err != nil {
		m.Close()
		return err
	}
	traced := newCommitter(tm, s.populated, e.seed)
	// The wrapper attributes storage time to the facade call in progress:
	// Write storage work is the child time of writes, Sync's of sync.
	var writes, sync acc
	commitID := -1
	st.cur = &writes
	hook := func(phase string, t time.Time) {
		end := time.Now()
		switch phase {
		case "writes":
			commitID = e.spans.reserve("picl.commit", -1, -1, 0, t)
			e.spans.add("picl.write x64", commitID, -1, 0, t, end)
			writes.calls += durWritesPerCommit
			writes.timed += durWritesPerCommit
			writes.total += end.Sub(t)
			st.parent, st.cur = e.spans.reserve("picl.sync", commitID, -1, 0, end), &sync
		case "sync":
			sync.calls++
			sync.add(end.Sub(t))
			e.spans.finish(st.parent, end)
			e.spans.finish(commitID, end)
			st.parent, st.cur = -1, &writes
		}
	}
	traced.hook = hook
	commitFor(e.budget(), base, traced)
	st.cur = nil
	e.rep.ops(base.commits+traced.commits, base.failed+traced.failed)

	tc := e.tc
	n := float64(sync.calls)
	us := func(a *acc) float64 { return a.perCallNs(tc) / 1e3 }
	layer(layers, "storage.log_append_us", us(&st.logAppend), "us", src)
	layer(layers, "storage.log_fsync_us", us(&st.logSync), "us", src)
	layer(layers, "storage.image_write_us", us(&st.imgWrite), "us", src)
	layer(layers, "storage.image_fsync_us", us(&st.imgSync), "us", src)
	layer(layers, "storage.marker_set_us", us(&st.mkSet), "us", src)
	// Marker.Set is write-temp + fsync + rename + directory fsync.
	fsyncs := st.logSync.calls + st.imgSync.calls + 2*st.mkSet.calls + st.mkSyncDir.calls
	layer(layers, "storage.fsyncs_per_commit", float64(fsyncs)/n, "count", src)
	layer(layers, "undolog.blocks_per_commit", float64(st.logAppend.calls)/n, "count", src)
	// A picl.Write's cost is what its caller waits for, storage included;
	// the loop times 64 writes as one span, so no clock bias per write.
	layer(layers, "picl.write_ns", float64(writes.total.Nanoseconds())/float64(writes.calls), "ns", src)
	layer(layers, "picl.sync_self_us", sync.selfNs(tc)/1e3, "us", src)
	layer(layers, "picl.open_ms", float64(openD.Nanoseconds())/1e6, "ms", src)
	enc, dec := undologCodec(e.quick)
	layer(layers, "undolog.encode_block_ns", enc, "ns", src)
	layer(layers, "undolog.decode_block_ns", dec, "ns", src)
	layer(layers, "trace_overhead_frac", quantile(traced.cycleUs, 0.5)/quantile(base.cycleUs, 0.5)-1, "frac", src)
	if err := closeAndVerify(e, m, base.model); err != nil {
		tm.Close()
		return err
	}
	return closeAndVerify(e, tm, traced.model)
}

// undologCodec times EncodeBlock and DecodeBlock on a full block and
// returns ns per call of each.
func undologCodec(quick bool) (enc, dec float64) {
	n := 20_000
	if quick {
		n = 1_000
	}
	b := undolog.Block{MaxValidTill: 9}
	for i := 0; i < undolog.EntriesPerBlock; i++ {
		b.Entries = append(b.Entries, undolog.Entry{Line: mem.LineAddr(i * 7), ValidFrom: 3, ValidTill: 9, Old: mem.Word(i)})
	}
	raw, err := undolog.EncodeBlock(b)
	if err != nil {
		panic(err) // a full block of valid entries always encodes
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		raw, _ = undolog.EncodeBlock(b)
	}
	enc = float64(time.Since(t).Nanoseconds()) / float64(n)
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := undolog.DecodeBlock(raw); err != nil {
			panic(err) // raw is EncodeBlock output
		}
	}
	dec = float64(time.Since(t).Nanoseconds()) / float64(n)
	return enc, dec
}
