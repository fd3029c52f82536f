// Package serve turns the experiment runner into a long-lived service:
// a content-addressed result store with a cross-process claim/lease
// protocol (Store), an HTTP daemon over it (Server), and rendezvous
// routing across replicas (Peers). It is the one package in the tree
// that deliberately lives OUTSIDE the determinism contract — it reads
// wall clocks for leases and latency, and the picl-lint determinism
// analyzer exempts it explicitly (internal/lint, deterministicExempt):
// the boundary is that everything BELOW the serve layer stays
// byte-deterministic, which is exactly what lets replicas coalesce on
// content digests at all.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

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
// RunKey's canonical rendering. Two replicas built from the same source
// derive the same digest for the same request, which is what makes the
// store shareable without any coordination beyond the filesystem.
func DigestOf(canonicalKey string) [32]byte {
	return sha256.Sum256([]byte(canonicalKey))
}

// Store is the durable, cross-process result store: a storage.Results
// log (content-addressed payloads with torn-tail repair) plus a
// claim/lease directory that coalesces computation of the same cell
// across processes. All methods are safe for concurrent use.
//
// # Claim/lease protocol
//
// One claim file per digest under claims/, created with O_CREATE|O_EXCL
// — the filesystem's atomic test-and-set. The holder computes the cell,
// appends the result, and removes the claim. Waiters poll: each tick
// they refresh the result log (a foreign append satisfies them,
// Source-Waited) and re-examine the claim. A claim older than the lease
// TTL is presumed orphaned (holder crashed mid-simulation) and stolen:
// removed, then re-contended through the same O_EXCL create. The steal
// races benignly — the worst case is two processes simulating the same
// deterministic cell and appending identical payloads, which the
// last-write-wins result log absorbs.
//
// Appends are serialized across processes by store.lock (same
// acquire/steal discipline, short TTL): the result log is a sequence of
// block appends, and interleaving two processes' blocks would tear both
// records. Under the lock the writer refreshes to the true tail first,
// so foreign records are never overwritten.
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
	// Lease is how old a claim file may grow before waiters steal it.
	// It must comfortably exceed the longest cell simulation.
	Lease time.Duration
	// Poll is the waiter's re-check interval.
	Poll time.Duration
	// OnDegrade, if non-nil, is called exactly once, when the store
	// goes read-only (the error is the root cause).
	OnDegrade func(error)

	mu       sync.Mutex
	res      *storage.Results
	degraded error
	degOnce  sync.Once
}

// Store tuning defaults.
const (
	// DefaultLease bounds claim-holder absence: a simulation exceeding
	// it will have its claim stolen and the cell recomputed. Scaled
	// cells run in milliseconds-to-seconds; 30s is generous.
	DefaultLease = 30 * time.Second
	// DefaultPoll is the waiter tick. Cheap: a stat of the claim file
	// plus an incremental log rescan.
	DefaultPoll = 20 * time.Millisecond
	// lockLease bounds the append lock (held only for one refresh +
	// append, never a simulation).
	lockLease = 5 * time.Second
)

// OpenStore mounts (creating if needed) a store directory: results.log
// for payloads, claims/ for the lease protocol. wrap, if non-nil,
// decorates the log backend before the result region mounts on it —
// the fault-injection hook the nightly soak uses to storm the store
// with transient I/O failures.
func OpenStore(dir string, wrap storage.Wrapper) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "claims"), 0o755); err != nil {
		return nil, err
	}
	f, err := storage.OpenFile(filepath.Join(dir, "results.log"), 0)
	if err != nil {
		return nil, err
	}
	var b storage.Backend = f
	if wrap != nil {
		b = wrap.WrapLog(f)
	}
	res, err := storage.OpenResults(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return &Store{dir: dir, Lease: DefaultLease, Poll: DefaultPoll, res: res}, nil
}

// Close syncs and releases the result log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	lock := filepath.Join(s.dir, "store.lock")
	if err := acquireLockFile(lock, lockLease, s.Poll); err != nil {
		s.degradeLocked(fmt.Errorf("serve: append lock: %w", err))
		return err
	}
	defer os.Remove(lock)
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
	// ClaimHeld: a live foreign claim exists; poll and retry.
	ClaimHeld
	// ClaimStolen: a stale claim was removed; re-contend immediately.
	ClaimStolen
)

// TryClaim attempts to take the claim for d, stealing a lease older
// than s.Lease. In degraded mode it reports ClaimAcquired without
// touching the disk — coalescing is off, every requester computes.
func (s *Store) TryClaim(d [32]byte) (ClaimState, error) {
	if deg, _ := s.Degraded(); deg {
		return ClaimAcquired, nil
	}
	path := s.claimPath(d)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err == nil {
		fmt.Fprintf(f, "pid=%d\n", os.Getpid())
		f.Close()
		return ClaimAcquired, nil
	}
	if !errors.Is(err, os.ErrExist) {
		return 0, err
	}
	fi, serr := os.Stat(path)
	if serr != nil {
		// Claim vanished between create and stat: the holder finished.
		return ClaimStolen, nil
	}
	if time.Since(fi.ModTime()) > s.Lease {
		// Orphaned by a crashed holder. Removal races with other
		// stealers and with a holder's own Release; every outcome
		// converges on at most a duplicate compute of a deterministic
		// cell.
		os.Remove(path)
		return ClaimStolen, nil
	}
	return ClaimHeld, nil
}

// Release drops the claim for d (holder side).
func (s *Store) Release(d [32]byte) {
	if deg, _ := s.Degraded(); deg {
		return
	}
	os.Remove(s.claimPath(d))
}

// acquireLockFile takes a short-TTL mutex file, spinning at the poll
// interval and stealing stale instances. Unlike claims there is no
// result to wait for — the lock only serializes appends — so the loop
// is bounded by the TTL itself: if the lock cannot be won within two
// leases something is genuinely wedged and the store degrades.
func acquireLockFile(path string, ttl, poll time.Duration) error {
	deadline := time.Now().Add(2 * ttl)
	for {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "pid=%d\n", os.Getpid())
			return f.Close()
		}
		if !errors.Is(err, os.ErrExist) {
			return err
		}
		if fi, serr := os.Stat(path); serr == nil && time.Since(fi.ModTime()) > ttl {
			os.Remove(path)
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: lock %s held past %v", filepath.Base(path), 2*ttl)
		}
		time.Sleep(poll)
	}
}
