package picl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// fileSize reports the size of the store file name in dir.
func fileSize(t *testing.T, dir, name string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestOpenCompactStoreWritesOnlySeals: Open of durable-commit's
// populated store — every line of a 2^16-line footprint written once,
// committed every 1024 lines, closed cleanly — rewrites neither file.
// The image gains at most three commit records and the lines recovery
// changed, and undo.log keeps its inode and every byte of the prefix
// recovery reads.
func TestOpenCompactStoreWritesOnlySeals(t *testing.T) {
	if testing.Short() {
		t.Skip("populates a 2^16-line store; skipped in -short")
	}
	base := filepath.Join(t.TempDir(), "base")
	m, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range uint64(1 << 16) {
		if err := m.Write(i*64, i*0x9e3779b97f4a7c15|1); err != nil {
			t.Fatal(err)
		}
		if i%1024 == 1023 {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	probe := filepath.Join(t.TempDir(), "probe")
	copyStore(t, base, probe)
	_, info, err := storage.RecoverDir(probe)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records > storage.CompactRatio*int64(info.Lines) {
		t.Fatalf("the populated store holds %d image records for %d lines: not a compact store", info.Records, info.Lines)
	}

	dir := filepath.Join(t.TempDir(), "store")
	copyStore(t, base, dir)
	imgPath, logPath := filepath.Join(dir, storage.ImageFileName), filepath.Join(dir, storage.LogFileName)
	img0, end0 := readImage(t, imgPath)
	img0 = img0[:end0]
	log0, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	fi0, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	img1, end1 := readImage(t, imgPath)
	img1 = img1[:end1]
	if grown := len(img1) - len(img0); grown > 24*(3+info.Changed) || !bytes.Equal(img1[:len(img0)], img0) {
		t.Fatalf("Open grew the image %d -> %d bytes (%d lines changed) or rewrote its prefix; want at most three commit records and the changed lines appended",
			len(img0), len(img1), info.Changed)
	}
	fi1, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(fi0, fi1) {
		t.Fatal("Open replaced undo.log")
	}
	log1, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	prefix := undolog.SuperBytes + info.BlocksRead*undolog.BlockBytes
	if len(log1) < prefix || !bytes.Equal(log1[:prefix], log0[:prefix]) {
		t.Fatalf("Open changed the %d-block log prefix recovery reads", info.BlocksRead)
	}
}

// TestSyncOnlyLogBounded: a session that commits only with Sync reuses
// the log blocks each Sync leaves dead, so 2000 and 8000
// durable-commit-shaped commits (64 writes, then Sync) leave undo.log
// the same size.
func TestSyncOnlyLogBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("8000 fsynced commits; skipped in -short")
	}
	dir := filepath.Join(t.TempDir(), "store")
	m := populateStore(t, dir)
	x := uint64(1)
	var at2000 int64
	for c := 1; c <= 8000; c++ {
		commitWrites(t, m, &x)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		if c == 2000 {
			at2000 = fileSize(t, dir, storage.LogFileName)
		}
	}
	if at8000 := fileSize(t, dir, storage.LogFileName); at8000 != at2000 {
		t.Fatalf("undo.log holds %d bytes after 2000 Sync commits and %d after 8000: the log grows with the commit count", at2000, at8000)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if img, _ := m.Recovered(); img.Lines() != reopenLines {
		t.Fatalf("reopen recovered %d lines, want %d", img.Lines(), reopenLines)
	}
}

// TestOpenKeepsSyncOnlyLog: Open after a session that committed only
// with Sync leaves undo.log as it found it, same inode and same size.
// Recovery reads none of the stale blocks past the prefix the last
// commit names, and the next session overwrites them in place, so
// cutting them would only make that session regrow the file.
func TestOpenKeepsSyncOnlyLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m, err := Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for range 200 {
		commitWrites(t, m, &x)
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, storage.LogFileName)
	fi0, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi0.Size() <= undolog.SuperBytes {
		t.Fatalf("the Sync-only session left a %d-byte undo.log: no stale blocks to keep", fi0.Size())
	}
	m, err = Open(dir, WithSmallCaches())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fi1, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(fi0, fi1) || fi1.Size() != fi0.Size() {
		t.Fatalf("Open turned a %d-byte undo.log into %d bytes (same file: %v); want it untouched",
			fi0.Size(), fi1.Size(), os.SameFile(fi0, fi1))
	}
}

// TestReopenSessionsImageBounded: sessions that reopen the store and
// rewrite part of it keep image.dat's sealed bytes within CompactRatio
// records per live line plus what one session appends, however many
// sessions run, and the zero padding behind them within one extension.
func TestReopenSessionsImageBounded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m := populateStore(t, dir)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// One session: 20 commits of 64 writes, each line written back at
	// most twice, plus Close's commit and Open's seals.
	const sessionRecords = 20*(2*64+1) + 4
	bound := int64(8 + 24*(storage.CompactRatio*reopenLines+sessionRecords))
	x := uint64(7)
	compactions := 0
	imgPath := filepath.Join(dir, storage.ImageFileName)
	for s := 0; s < 16; s++ {
		_, before := readImage(t, imgPath)
		m, err := Open(dir, WithSmallCaches())
		if err != nil {
			t.Fatal(err)
		}
		if img, _ := m.Recovered(); img.Lines() != reopenLines {
			t.Fatalf("session %d recovered %d lines, want %d", s, img.Lines(), reopenLines)
		}
		if _, after := readImage(t, imgPath); after < before {
			compactions++
		}
		for range 20 {
			commitWrites(t, m, &x)
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		raw, size := readImage(t, imgPath)
		if int64(size) > bound {
			t.Fatalf("after %d sessions image.dat holds %d sealed bytes, over %d: two records per live line and one session", s+1, size, bound)
		}
		if pad := len(raw) - size; pad > imagePadStep {
			t.Fatalf("after %d sessions image.dat holds %d bytes of zero padding, over one %d-byte extension", s+1, pad, imagePadStep)
		}
	}
	if compactions == 0 {
		t.Fatal("16 sessions never compacted the image: the bound was not reached")
	}
}

// crashOpts configure the crash-matrix machines: small caches so lines
// are evicted, a 4-entry undo buffer so blocks flush often, and ACS gap
// 1 so commits carry evictions of a newer epoch.
func crashOpts(more ...Option) []Option {
	return append([]Option{WithSmallCaches(), WithConfig(Config{ACSGap: 1, BufferEntries: 4})}, more...)
}

// crashLines is the crash-matrix footprint.
const crashLines = 1024

// oldStore builds in dir the store a crash-matrix session reopens:
// every line of the footprint written in epoch 1 and again in epoch 2
// (line i holds e*1000+i in epoch e), with a CommitEpoch after each,
// whose ACS-gap scan seals epoch 1 and syncs the log; then the power is
// cut, leaving epoch-2 evictions for recovery to roll back, or the
// machine is closed, with only half the lines written in epoch 2 so that
// the image stays under the bound. Its image is padded with records that replay
// what it already holds, up to records in all, so it sits exactly where
// the test wants it against the compaction bound. It returns the image
// every recovery of the store produces.
func oldStore(t *testing.T, dir string, crash bool, records int64) *mem.Image {
	t.Helper()
	m, err := Open(dir, crashOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want := mem.NewImage()
	second := uint64(crashLines)
	if !crash {
		second /= 2
	}
	for e, lines := range []uint64{1: crashLines, 2: second} {
		for i := range lines {
			v := uint64(e)*1000 + i
			if err := m.Write(i*64, v); err != nil {
				t.Fatal(err)
			}
			if !crash || e == 1 {
				want.Write(mem.LineAddr(i), mem.Word(v))
			}
		}
		if e > 0 {
			if err := m.CommitEpoch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if crash {
		m.Crash()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	d, err := storage.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := d.Img.Load()
	if err != nil {
		t.Fatal(err)
	}
	pad := records - d.Img.(*storage.ImageFile).Records() - 1
	if pad < 0 {
		t.Fatalf("the store already holds more than %d image records", records)
	}
	for l := range mem.LineAddr(pad) {
		l %= crashLines
		if err := d.Img.WriteLine(l, replay.Read(l)); err != nil {
			t.Fatal(err)
		}
	}
	e, err := d.Mk.Get()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mk.Set(e); err != nil { // same epoch, same named log prefix
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// snapshot is a copy of a store taken right after a durable step, or
// right after an unsynced append of log block at, whose previous bytes
// were old (nil if the file held none there).
type snapshot struct {
	what string
	dir  string
	at   uint64
	old  []byte
}

// snapper is a storage.Wrapper that copies the live store after every
// marker Set and directory fsync, and after the next log append once
// armed.
type snapper struct {
	t         *testing.T
	live      string
	root      string
	armed     bool // copy the store after the next append
	maxBlocks uint64
	snaps     []snapshot
}

func (w *snapper) take(what string, at uint64, old []byte) {
	dir := filepath.Join(w.root, fmt.Sprintf("snap%d", len(w.snaps)))
	copyStore(w.t, w.live, dir)
	w.snaps = append(w.snaps, snapshot{what, dir, at, old})
}

func (w *snapper) WrapLog(l storage.LogStore) storage.LogStore        { return &snapLog{l, w} }
func (w *snapper) WrapImage(im storage.ImageStore) storage.ImageStore { return im }
func (w *snapper) WrapMarker(mk storage.MarkerStore) storage.MarkerStore {
	return &snapMarker{mk, w}
}

type snapLog struct {
	storage.LogStore
	w *snapper
}

func (l *snapLog) AppendBlock(raw []byte) error {
	at := l.Blocks()
	old := make([]byte, undolog.BlockBytes)
	if l.ReadBlocks(at, old) != nil {
		old = nil
	}
	if err := l.LogStore.AppendBlock(raw); err != nil {
		return err
	}
	l.w.maxBlocks = max(l.w.maxBlocks, l.Blocks())
	if l.w.armed {
		l.w.armed = false
		l.w.take("append", at, old)
	}
	return nil
}

type snapMarker struct {
	storage.MarkerStore
	w *snapper
}

func (mk *snapMarker) Set(e mem.EpochID) error {
	if err := mk.MarkerStore.Set(e); err != nil {
		return err
	}
	mk.w.take(fmt.Sprintf("set %d", e), 0, nil)
	return nil
}

func (mk *snapMarker) SyncDir() error {
	if err := mk.MarkerStore.SyncDir(); err != nil {
		return err
	}
	mk.w.take("syncdir", 0, nil)
	return nil
}

// rotNewestCommit flips a bit of the image's final commit record: its
// batch then reads as torn, and recovery lands one commit back.
func rotNewestCommit(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, storage.ImageFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-24+2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkReopen opens the store in dir and requires it to recover
// bit-exactly to the golden image of the epoch its marker names.
func checkReopen(t *testing.T, what, dir string, golden func(e uint64) *mem.Image) {
	t.Helper()
	m, err := Open(dir, crashOpts()...)
	if err != nil {
		t.Fatalf("%s: Open: %v", what, err)
	}
	defer m.Close()
	img, e := m.Recovered()
	want := golden(e)
	if want == nil {
		t.Fatalf("%s: recovered epoch %d, which no commit sealed", what, e)
	}
	if !img.img.Equal(want) {
		t.Fatalf("%s: recovered epoch %d differs from its golden image at lines %v", what, e, img.img.Diff(want, 5))
	}
}

// TestOpenCrashMatrix cuts the power at every durable step of Open's
// seal sequence and at the points where the new session first writes
// over the old log: its first unsynced overwrite of block 0, its
// commits (the first ACS-gap commit among them), and its first
// overwrite after a Sync rewound the log. At each point the newest
// commit is also rotted, and the overwritten block lands whole, as the
// stale block it overwrote, zeroed, garbage or torn. Every state
// recovers bit-exactly to the golden epoch its marker names. The stores
// sit on both sides of the compaction bound — with and without lines
// for recovery to roll back — and their old logs are longer than the
// new session's.
func TestOpenCrashMatrix(t *testing.T) {
	stores := []struct {
		name  string
		crash bool
		over  int64 // records past the bound
		steps string
	}{
		{"rolled back, at the bound", true, 0, "[set 1 set 0 set 0]"},
		{"rolled back, past the bound", true, 1, "[syncdir]"},
		{"closed cleanly, at the bound", false, 0, "[set 0 set 0]"},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			root := t.TempDir()
			base := filepath.Join(root, "base")
			want := oldStore(t, base, st.crash, storage.CompactRatio*crashLines+st.over)
			probe := filepath.Join(root, "probe")
			copyStore(t, base, probe)
			_, info, err := storage.RecoverDir(probe)
			if err != nil {
				t.Fatal(err)
			}
			if st.crash != (info.Changed > 0) {
				t.Fatalf("recovery changes %d lines of the old store", info.Changed)
			}
			oldBlocks := uint64(info.BlocksRead)
			same := func(uint64) *mem.Image { return want }
			variants := func(what string, s snapshot, golden func(uint64) *mem.Image) {
				t.Helper()
				dst := filepath.Join(root, "check")
				for _, rot := range []bool{false, true} {
					name := what
					copyStore(t, s.dir, dst)
					if rot {
						name += ", newest commit rotted"
						rotNewestCommit(t, dst)
					}
					checkReopen(t, name, dst, golden)
				}
			}

			// Open's seal sequence, at the storage layer: recover, then
			// Reset with a copy of the store taken after each durable step.
			dirA := filepath.Join(root, "a")
			copyStore(t, base, dirA)
			variants("the old store", snapshot{dir: dirA}, same)
			d, err := storage.OpenDir(dirA)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			sa := &snapper{t: t, live: dirA, root: filepath.Join(root, "snapA")}
			d.Wrap(sa)
			if err := d.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			var steps []string
			for _, s := range sa.snaps {
				steps = append(steps, s.what)
				variants("after Open's "+s.what, s, same)
			}
			if fmt.Sprint(steps) != st.steps {
				t.Fatalf("Open's durable steps %v, want %s", steps, st.steps)
			}

			// The new session: three commits of 64 writes (the second and
			// third ACS-gap commits), 16 more writes, a Sync, then writes
			// until the next append.
			dirB := filepath.Join(root, "b")
			copyStore(t, base, dirB)
			sb := &snapper{t: t, live: dirB, root: filepath.Join(root, "snapB"), armed: true}
			m, err := Open(dirB, crashOpts(WithStoreWrapper(sb))...)
			if err != nil {
				t.Fatal(err)
			}
			cur := want.Clone()
			goldens := []*mem.Image{want}
			write := func(i, v uint64) {
				if err := m.Write(i*64, v); err != nil {
					t.Fatal(err)
				}
				cur.Write(mem.LineAddr(i), mem.Word(v))
			}
			for e := uint64(1); e <= 3; e++ {
				for i := range uint64(64) {
					write(i, e*100000+i)
				}
				if err := m.CommitEpoch(); err != nil {
					t.Fatal(err)
				}
				goldens = append(goldens, cur.Clone())
			}
			for i := range uint64(16) {
				write(100+i, 400000+i)
			}
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
			goldens = append(goldens, cur.Clone())
			sb.armed = true
			for i := uint64(200); sb.armed; i++ {
				if i == crashLines {
					t.Fatal("the session appended no block after its Sync")
				}
				write(i, 500000+i)
			}
			m.Crash()
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if sb.maxBlocks >= oldBlocks {
				t.Fatalf("the new session wrote %d log blocks, the old log named %d: want the old log longer", sb.maxBlocks, oldBlocks)
			}
			session := func(e uint64) *mem.Image {
				if e < uint64(len(goldens)) {
					return goldens[e]
				}
				return nil
			}
			var appends, gapCommits int
			for _, s := range sb.snaps {
				if s.what != "append" {
					if s.what != "set 4" {
						gapCommits++
					}
					variants("after the session's "+s.what, s, session)
					continue
				}
				appends++
				off := undolog.SuperBytes + int(s.at)*undolog.BlockBytes
				raw, err := os.ReadFile(filepath.Join(s.dir, storage.LogFileName))
				if err != nil {
					t.Fatal(err)
				}
				blk := raw[off : off+undolog.BlockBytes]
				stale := s.old
				if stale == nil {
					stale = make([]byte, undolog.BlockBytes)
				}
				shapes := map[string][]byte{
					"whole":   bytes.Clone(blk),
					"stale":   bytes.Clone(stale),
					"zeros":   make([]byte, undolog.BlockBytes),
					"garbage": bytes.Clone(blk),
					"torn":    append(bytes.Clone(blk[:700]), stale[700:]...),
				}
				for i := range shapes["garbage"] {
					shapes["garbage"][i] ^= 0xA5
				}
				for _, shape := range []string{"whole", "stale", "zeros", "garbage", "torn"} {
					landed := filepath.Join(root, "landed")
					copyStore(t, s.dir, landed)
					log := bytes.Clone(raw)
					copy(log[off:], shapes[shape])
					if err := os.WriteFile(filepath.Join(landed, storage.LogFileName), log, 0o644); err != nil {
						t.Fatal(err)
					}
					variants(fmt.Sprintf("after the session's unsynced append of block %d, landed %s", s.at, shape),
						snapshot{dir: landed}, session)
				}
			}
			if appends != 2 || gapCommits != 2 || sb.snaps[0].at != 0 {
				t.Fatalf("the session's snapshots %v: want an append of block 0 first, two ACS-gap commits and an append after the Sync", sb.snaps)
			}
		})
	}
}
