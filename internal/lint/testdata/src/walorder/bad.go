// Package wtest exercises the walorder analyzer: all three rules of the
// write-ahead ordering contract, the interprocedural chain case, discharge
// by an ordering caller, the zero-marker reset exemption, the bulk commit
// reached only from ForcePersist, and suppression. The type names matter:
// effect classification keys on Marker/Image/Log receivers, as in storage.
package wtest

import "os"

type undoLog struct{}

func (*undoLog) AppendBlock(b []byte) error { return nil }
func (*undoLog) Sync() error                { return nil }

type imageStore struct{}

func (*imageStore) WriteLine(off int64, b []byte) error { return nil }
func (*imageStore) Sync() error                         { return nil }

type store struct {
	log *undoLog
	img *imageStore
	mk  *goodMarker
}

// BadDirect issues an image write with no undo coverage at all: the
// canonical rule-1 violation.
func (s *store) BadDirect(b []byte) error {
	return s.img.WriteLine(0, b)
}

// AppendOnly appends the undo block and leaves it unsynced: clean, the
// commit that seals the write syncs the log first (rule 2).
func (s *store) AppendOnly(b []byte) error {
	if err := s.log.AppendBlock(b); err != nil {
		return err
	}
	return s.img.WriteLine(0, b)
}

// GoodDirect is the contract followed: append, sync, then write.
func (s *store) GoodDirect(b []byte) error {
	if err := s.log.AppendBlock(b); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	return s.img.WriteLine(0, b)
}

// mirror performs the write for its callers; the obligation propagates
// to them, so no diagnostic lands here.
func (s *store) mirror(b []byte) error { return s.img.WriteLine(0, b) }

// evictViaHelper reaches the unordered write through mirror — the
// interprocedural rule-1 violation, reported at this call with the
// chain attached.
func (s *store) evictViaHelper(b []byte) error {
	return s.mirror(b)
}

// flush provides the write-ahead ordering for whatever follows it.
func (s *store) flush(b []byte) error {
	if err := s.log.AppendBlock(b); err != nil {
		return err
	}
	return s.log.Sync()
}

// evictOrdered discharges mirror's obligation by flushing first.
func (s *store) evictOrdered(b []byte) error {
	if err := s.flush(b); err != nil {
		return err
	}
	return s.mirror(b)
}

// BadMarker advances the marker with the log unsynced: rule 2.
func (s *store) BadMarker(e uint64) error {
	return s.mk.Set(e)
}

// HalfMarker syncs the image instead of the log: the log sync is
// missing, and the image records went out ahead of the commit in an
// append of their own — both halves of rule 2 at one call.
func (s *store) HalfMarker(e uint64) error {
	if err := s.img.Sync(); err != nil {
		return err
	}
	return s.mk.Set(e)
}

// GoodMarker syncs the log, then commits; the commit carries the image
// records itself.
func (s *store) GoodMarker(e uint64) error {
	if err := s.log.Sync(); err != nil {
		return err
	}
	return s.mk.Set(e)
}

// SplitMarker keeps the separate image sync ahead of the commit, so the
// records reach the file unsealed: rule 2's marker-split.
func (s *store) SplitMarker(e uint64) error {
	if err := s.img.Sync(); err != nil {
		return err
	}
	if err := s.log.Sync(); err != nil {
		return err
	}
	return s.mk.Set(e)
}

// syncBoth syncs both stores for its callers.
func (s *store) syncBoth() error {
	if err := s.img.Sync(); err != nil {
		return err
	}
	return s.log.Sync()
}

// splitViaHelper inherits syncBoth's image sync before its marker
// advance: marker-split through a callee, reported at the advance.
func (s *store) splitViaHelper(e uint64) error {
	if err := s.syncBoth(); err != nil {
		return err
	}
	return s.mk.Set(e)
}

// ResetMarker writes the zero marker over a freshly emptied store; the
// constant-zero exemption applies (nothing below epoch 0 to cover).
func (s *store) ResetMarker() error {
	return s.mk.Set(0)
}

// migrateRaw is a suppressed rule-1 violation: the justification rides
// on the directive.
func (s *store) migrateRaw(b []byte) error {
	//lint:ignore walorder seed-image bootstrap runs before any log exists
	return s.img.WriteLine(0, b)
}

// goodMarker is the in-place shape rule 3 requires of a commit: one
// positional write of the sealed batch at the tail of the already-open
// image file, then an fsync of that file; no temp file, rename or
// directory fsync.
type goodMarker struct {
	f    *os.File
	tail int64
}

func (m *goodMarker) Set(e uint64) error {
	if _, err := m.f.WriteAt([]byte{byte(e)}, m.tail); err != nil {
		return err
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	m.tail++
	return nil
}

// createLayout is a whole-file replace (a compaction), the clean atomic
// shape: staging *.tmp, file fsync, rename, directory fsync.
func createLayout(path string, dirf *os.File) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(make([]byte, 8192)); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return dirf.Sync()
}

// tornMarker rewrites its file with a truncating write and no fsync —
// rule 3's marker-rewrite, reported at the method name.
type tornMarker struct{ path string }

func (m *tornMarker) Set(e uint64) error {
	return os.WriteFile(m.path, []byte{byte(e)}, 0o644)
}

// lazyMarker stages and renames but never fsyncs the staging file or
// the directory: two rule-3 findings on the rename, and marker-rewrite
// on the method (a marker Set never renames).
type lazyMarker struct{ path string }

func (m *lazyMarker) Set(e uint64) error {
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, []byte{byte(e)}, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.path)
}

// looseMarker appends its commit in place but returns before fsyncing
// the file: rule 3's marker-not-in-place.
type looseMarker struct{ f *os.File }

func (m *looseMarker) Set(e uint64) error {
	_, err := m.f.WriteAt([]byte{byte(e)}, 0)
	return err
}

// publish fsyncs and dir-fsyncs correctly but renames a non-staging
// source: rule 3's replace-not-tmp.
func publish(f *os.File, dirf *os.File, from, to string) error {
	if err := f.Sync(); err != nil {
		return err
	}
	if err := os.Rename(from, to); err != nil {
		return err
	}
	return dirf.Sync()
}

// truncMarker reopens its file with O_TRUNC before its positional
// write and fsync: the fsync does not undo the truncation, which can
// lose every sealed batch in a crash — rule 3's marker-rewrite.
type truncMarker struct{ path string }

func (m *truncMarker) Set(e uint64) error {
	f, err := os.OpenFile(m.path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte{byte(e)}, 0); err != nil {
		return err
	}
	return f.Sync()
}

// imageLog is the image file two markers below commit through.
type imageLog struct {
	f    *os.File
	size int64
}

// commit appends in place: rule 3's shape, reached through a callee.
func (l *imageLog) commit(b []byte) error {
	if _, err := l.f.WriteAt(b, l.size); err != nil {
		return err
	}
	return l.f.Sync()
}

// shrink truncates the image before it commits.
func (l *imageLog) shrink(b []byte) error {
	if err := l.f.Truncate(l.size); err != nil {
		return err
	}
	return l.commit(b)
}

// sealMarker delegates its commit to the image log's in-place append:
// clean.
type sealMarker struct{ img *imageLog }

func (m *sealMarker) Set(e uint64) error { return m.img.commit([]byte{byte(e)}) }

// shrinkMarker commits through a helper that truncates the image on the
// way: rule 3's marker-rewrite, found in the callee.
type shrinkMarker struct{ img *imageLog }

func (m *shrinkMarker) Set(e uint64) error { return m.img.shrink([]byte{byte(e)}) }

// splitBeforeHelper syncs the image, then commits through GoodMarker:
// marker-split at the call, found in the callee's summary.
func (s *store) splitBeforeHelper(e uint64) error {
	if err := s.img.Sync(); err != nil {
		return err
	}
	return s.GoodMarker(e)
}

// PersistBulk is the bulk ACS's commit: no log sync, since recovery at
// its epoch applies no undo entry.
func (s *store) PersistBulk(e uint64) error { return s.mk.Set(e) }

// ForcePersist is the bulk ACS, the one call tree PersistBulk may be
// reached from: clean.
func (s *store) ForcePersist(e uint64) error { return s.PersistBulk(e) }

// EpochBoundary is an ACS-gap commit that skips its log sync by taking
// the bulk commit: rule 2's marker-unordered, at the call.
func (s *store) EpochBoundary(e uint64) error {
	return s.PersistBulk(e)
}

// engine runs both scans through one commit helper.
type engine struct{ s *store }

// seal commits for whichever of engine's scans calls it.
func (g *engine) seal(e uint64) error { return g.s.PersistBulk(e) }

// ForcePersist reaches the bulk commit through seal: clean.
func (g *engine) ForcePersist(e uint64) error { return g.seal(e) }

// EpochBoundary shares seal with the bulk ACS, so its ACS-gap commit
// skips the log sync as well: marker-unordered at the call, with the
// chain through seal.
func (g *engine) EpochBoundary(e uint64) error {
	return g.seal(e)
}

// FileOps is the file seam storage's files do their I/O through: a raw
// file, classified like *os.File, not as the undo log its name suggests.
type FileOps interface {
	WriteAt(p []byte, off int64) (int, error)
	Sync() error
}

// opsMarker writes its commit through a FileOps field and returns
// before fsyncing it: rule 3's marker-not-in-place.
type opsMarker struct{ f FileOps }

func (m *opsMarker) Set(e uint64) error {
	_, err := m.f.WriteAt([]byte{byte(e)}, 0)
	return err
}

// syncedOpsMarker writes its commit through a FileOps field, then
// fsyncs that file: in place, and clean.
type syncedOpsMarker struct{ f FileOps }

func (m *syncedOpsMarker) Set(e uint64) error {
	if _, err := m.f.WriteAt([]byte{byte(e)}, 0); err != nil {
		return err
	}
	return m.f.Sync()
}
