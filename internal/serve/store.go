// Package serve turns the experiment runner into a long-lived service:
// a content-addressed result store shared across processes, with
// kernel-lock claims that coalesce computation of one cell (Store), an
// HTTP daemon over it (Server), and rendezvous routing across replicas
// (Peers). It is the one package in the tree that deliberately lives
// OUTSIDE the determinism contract — it reads wall clocks for polling
// and latency, and the picl-lint determinism analyzer exempts it
// explicitly (internal/lint, deterministicExempt): the boundary is that
// everything BELOW the serve layer stays byte-deterministic, which is
// exactly what lets replicas coalesce on content digests at all.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"picl/internal/golden"
	"picl/internal/storage"
)

// Source classifies how a request was satisfied. The codes are stable
// (they ride in obs events and X-Picl-Source headers).
type Source int

const (
	// SourceHit: the result was already warm (in-process memo or the
	// durable store) — no claim, no simulation.
	SourceHit Source = iota + 1
	// SourceComputed: this process claimed the cell and simulated it.
	SourceComputed
	// SourceWaited: another claimant (process or replica) computed the
	// cell while we polled the store for it.
	SourceWaited
	// SourcePeer: the cell's rendezvous owner served it over HTTP.
	SourcePeer
)

func (s Source) String() string {
	switch s {
	case SourceHit:
		return "hit"
	case SourceComputed:
		return "computed"
	case SourceWaited:
		return "waited"
	case SourcePeer:
		return "peer"
	default:
		return "unknown"
	}
}

// DigestOf is the content address of a run cell: the SHA-256 of the
// model registry's hash (golden.Hash) followed by the RunKey's
// canonical rendering. Two replicas built from the same source derive
// the same digest for the same request, which is what makes the store
// shareable without any coordination beyond the filesystem; a build
// whose model was re-recorded derives different ones, so it never
// serves a result the old model produced.
func DigestOf(canonicalKey string) [32]byte {
	// A key fits the stack buffer, so hashing allocates nothing.
	var buf [256]byte
	return sha256.Sum256(append(append(buf[:0], golden.Hash[:]...), canonicalKey...))
}

// Store is the durable, cross-process result store: a storage.Results
// log (content-addressed payloads with torn-tail repair) plus a claim
// directory that coalesces computation of the same cell across
// processes. All methods are safe for concurrent use. Every lock below
// is a flock(2) lock, which belongs to an open file: two Stores on one
// directory exclude each other as two processes do, and a process that
// dies drops its locks with its files.
//
// # Claims
//
// One claim file per digest under claims/. TryClaim opens it and takes
// LOCK_EX|LOCK_NB: exactly one open file wins, and keeps the lock while
// its holder computes the cell, appends the result, and releases —
// removing the file while still locked, then closing it. A lock won on
// a file that is no longer at its path guards nothing (its holder
// removed it between our open and our lock) and counts as held. Waiters
// poll: each tick they refresh the result log (a foreign append
// satisfies them, SourceWaited) and try the claim again.
//
// # Append lock
//
// store.lock is held with LOCK_EX from a Put's refresh through its
// append and fsync, so two processes' blocks never interleave, each
// appends after the other's records, and a partial record found there
// is a dead writer's, which the append cuts first. OpenStore holds it
// around the log's open, whose torn-tail repair would otherwise cut
// another process's append in flight.
//
// A daemon that still uses mtime lease files does not see these locks:
// only daemons of one build may share a store.
//
// # Degraded mode
//
// The first store I/O failure (append, sync, refresh) flips the store
// read-only, sticky, mirroring the engine's durable-mirror degraded
// mode: claims and persists stop, warm results keep serving, and new
// cells are computed per-request without coalescing. OnDegrade fires
// once for observability.
type Store struct {
	dir string
	// Poll is the waiter's re-check interval.
	Poll time.Duration
	// OnDegrade, if non-nil, is called exactly once, when the store
	// goes read-only (the error is the root cause).
	OnDegrade func(error)

	mu       sync.Mutex
	lock     *os.File // store.lock, open for the Store's life
	claims   map[[32]byte]*os.File
	res      *storage.Results
	degraded error
	degOnce  sync.Once
}

// DefaultPoll is the waiter tick. Cheap: one incremental log rescan
// plus an open and a non-blocking flock of the claim file.
const DefaultPoll = 20 * time.Millisecond

// OpenStore mounts (creating if needed) a store directory: results.log
// for payloads, store.lock for appends, claims/ for claims. wrap, if
// non-nil, decorates the log backend before the result region mounts
// on it — the fault-injection hook the nightly soak uses to storm the
// store with transient I/O failures.
func OpenStore(dir string, wrap storage.Wrapper) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "claims"), 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, "store.lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	// Opening the log repairs a torn tail, so it runs under the append
	// lock. Closing the lock file on an error path drops the lock.
	if err := flock(lock, syscall.LOCK_EX); err != nil {
		lock.Close()
		return nil, err
	}
	f, err := storage.OpenFile(filepath.Join(dir, "results.log"), 0)
	if err != nil {
		lock.Close()
		return nil, err
	}
	var b storage.Backend = f
	if wrap != nil {
		b = wrap.WrapLog(f)
	}
	res, err := storage.OpenResults(b)
	if err != nil {
		b.Close()
		lock.Close()
		return nil, err
	}
	flock(lock, syscall.LOCK_UN)
	return &Store{dir: dir, Poll: DefaultPoll, lock: lock, claims: map[[32]byte]*os.File{}, res: res}, nil
}

// flock applies how (syscall.LOCK_*) to f's open file. LOCK_UN on an
// open file cannot fail, so the unlocking calls drop the error.
func flock(f *os.File, how int) error { return syscall.Flock(int(f.Fd()), how) }

// Close syncs and releases the result log and the append lock.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lock.Close()
	return s.res.Close()
}

// Len reports how many distinct results are warm.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res.Len()
}

// Blocks reports the result log's size in storage blocks.
func (s *Store) Blocks() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res.Blocks()
}

// Degraded reports whether the store has gone read-only, and why.
func (s *Store) Degraded() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.degraded != nil, s.degraded
}

// degradeLocked flips the store read-only (sticky; the first error is
// the one Degraded reports) and fires OnDegrade once. s.mu is held.
func (s *Store) degradeLocked(err error) {
	if s.degraded == nil {
		s.degraded = err
	}
	s.degOnce.Do(func() {
		if s.OnDegrade != nil {
			s.OnDegrade(err)
		}
	})
}

// Get returns the warm payload for d, if present. It never touches the
// disk (Refresh pulls in foreign appends).
func (s *Store) Get(d [32]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res.Get(d)
}

// Refresh picks up results other processes appended. In degraded mode
// it is a no-op: the warm index keeps serving as-is. It returns the
// number of newly visible records.
func (s *Store) Refresh() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded != nil {
		return 0, nil
	}
	before := s.res.Len()
	if err := s.res.Refresh(); err != nil {
		s.degradeLocked(fmt.Errorf("serve: store refresh: %w", err))
		return 0, err
	}
	return s.res.Len() - before, nil
}

// Put appends one payload under the cross-process append lock and makes
// it durable. In degraded mode it silently drops the payload (the
// caller still has the bytes to serve this one request).
func (s *Store) Put(d [32]byte, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded != nil {
		return nil
	}
	if err := flock(s.lock, syscall.LOCK_EX); err != nil {
		s.degradeLocked(fmt.Errorf("serve: append lock: %w", err))
		return err
	}
	defer flock(s.lock, syscall.LOCK_UN)
	// Refresh to the true tail first: another process may have appended
	// since our last scan, and the backend must append after its blocks.
	if err := s.res.Refresh(); err != nil {
		s.degradeLocked(fmt.Errorf("serve: pre-append refresh: %w", err))
		return err
	}
	if _, dup := s.res.Get(d); dup {
		return nil // a waiter's compute lost the race; identical bytes
	}
	if err := s.res.Put(d, payload); err != nil {
		s.degradeLocked(fmt.Errorf("serve: store append: %w", err))
		return err
	}
	return nil
}

// claimPath returns the claim file for digest d.
func (s *Store) claimPath(d [32]byte) string {
	return filepath.Join(s.dir, "claims", hex.EncodeToString(d[:])+".claim")
}

// ClaimState reports one round of claim contention.
type ClaimState int

const (
	// ClaimAcquired: we hold the claim; compute, Put, then Release.
	ClaimAcquired ClaimState = iota + 1
	// ClaimHeld: another Store or another of this Store's requests
	// holds the claim; poll and retry.
	ClaimHeld
)

// TryClaim attempts to take the claim for d without blocking. In
// degraded mode it reports ClaimAcquired without touching the disk —
// coalescing is off, every requester computes.
func (s *Store) TryClaim(d [32]byte) (ClaimState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded != nil {
		return ClaimAcquired, nil
	}
	if s.claims[d] != nil {
		return ClaimHeld, nil
	}
	path := s.claimPath(d)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	if err := flock(f, syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return ClaimHeld, nil
		}
		return 0, err
	}
	// The lock counts only on the file at the path now: one its holder
	// removed after our open guards nothing.
	held, herr := f.Stat()
	cur, cerr := os.Stat(path)
	if herr != nil || cerr != nil || !os.SameFile(held, cur) {
		f.Close()
		return ClaimHeld, nil
	}
	s.claims[d] = f
	return ClaimAcquired, nil
}

// Release drops the claim for d if this Store holds it, degraded or
// not: the file is removed while still locked, so no open that follows
// can lock it, and closing it drops the lock. A claim this Store did
// not take is left alone.
func (s *Store) Release(d [32]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.claims[d]; f != nil {
		os.Remove(s.claimPath(d)) // a file left behind is unlocked: the next TryClaim takes it
		f.Close()
		delete(s.claims, d)
	}
}
