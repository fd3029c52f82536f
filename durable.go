package picl

import (
	"errors"
	"fmt"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// StoreWrapper intercepts a durable store's three components (undo log,
// image file, marker) with arbitrary middleware. The deterministic
// fault injector (internal/storage/fault) is one: it interposes on the
// files behind them, and the crash-fuzz campaign uses it to subject a
// live machine to failing writes and fsyncs, bit rot, and scheduled
// power cuts that land or lose whatever no fsync covered.
type StoreWrapper = storage.Wrapper

// WithStoreWrapper installs a component wrapper on the durable store a
// machine is Opened over. Only meaningful with Open; New ignores it
// (there is no store to wrap).
func WithStoreWrapper(w StoreWrapper) Option { return func(o *options) { o.wrapper = w } }

// wrapStorageErr maps storage-layer failures onto the facade's
// sentinels: an uninterpretable log (corrupt superblock, or rot in the
// log prefix the last commit names) is ErrTornLog, anything else
// ErrBackend.
func wrapStorageErr(err error) error {
	if errors.Is(err, undolog.ErrCorruptSuper) || errors.Is(err, undolog.ErrCorruptBlock) {
		return fmt.Errorf("%w: %w", ErrTornLog, err)
	}
	return fmt.Errorf("%w: %w", ErrBackend, err)
}

// Open builds a fully durable Machine over the store directory at path,
// creating it if absent. The directory holds the undo log and the
// line-granular memory image, whose last commit record is the
// persisted-epoch marker (see DESIGN.md §10). Open first runs crash
// recovery against whatever the directory holds — a previous SIGKILL,
// power cut, or clean Close all leave a recoverable store — then seals
// the recovered state as a fresh epoch-0 baseline and returns a machine
// seeded with it. Sealing costs what recovery changed, not what the
// store holds: the image gains only the lines the undo scan rolled back
// and two epoch-0 commits, and the new session overwrites the undo log
// in place from its first block. Only an image grown past two records
// per live line is rewritten whole. The recovered image and epoch are
// available via Recovered; the image is not copied, it becomes the
// machine's live NVM content.
//
// Options are as for New, except the scheme is fixed to "picl"
// (ErrBackend otherwise). Open checks them before it touches path: a
// rejected Open creates no directory and changes no file.
//
// The machine must be released with Close; a machine that is SIGKILLed
// instead leaves a directory that the next Open recovers bit-exactly to
// the last durably persisted epoch.
func Open(path string, opts ...Option) (*Machine, error) {
	probe := options{scheme: "picl"}
	for _, f := range opts {
		f(&probe)
	}
	if probe.scheme != "picl" {
		return nil, fmt.Errorf("%w: scheme %q cannot drive a durable store (need \"picl\")", ErrBackend, probe.scheme)
	}
	m, err := New(opts...)
	if err != nil {
		return nil, err
	}

	d, err := storage.OpenDir(path)
	if err != nil {
		return nil, wrapStorageErr(err)
	}
	img, info, err := d.Recover()
	if err != nil {
		d.Close()
		return nil, wrapStorageErr(err)
	}
	// Seal the recovered state as a fresh epoch-0 baseline so the new
	// machine's epoch numbering and the store agree from the start.
	if err := d.Reset(); err != nil {
		d.Close()
		return nil, wrapStorageErr(err)
	}
	// Fault middleware wraps after recovery and reset (both run against
	// the real files — the injector models failures of the NEW machine's
	// writes, not of the recovery read path) and before the store is
	// attached, so every mirrored operation flows through it.
	if probe.wrapper != nil {
		d.Wrap(probe.wrapper)
	}
	// New with scheme "picl" always yields a *core.PiCL.
	m.durablePiCL.SeedImage(img)
	m.durablePiCL.SetDurable(d)
	m.durable = d
	m.recoveredImg = Image{img: img}
	m.recoveredEID = uint64(info.Marker)
	return m, nil
}

// Recovered reports what Open found in the store directory: the
// consistent memory image recovered from disk and the epoch it
// corresponded to in the previous machine's numbering. A machine not
// built with Open returns an empty image and epoch 0.
//
// The image is the machine's live baseline, not a snapshot: as the
// machine persists later epochs it reads their values, both through an
// image held since Open and through a fresh call. A caller who wants
// the state Open recovered, unchanged, clones it (Image.Clone) before
// writing.
func (m *Machine) Recovered() (Image, uint64) {
	if m.recoveredImg.img == nil {
		return Image{img: mem.NewImage()}, 0
	}
	return m.recoveredImg, m.recoveredEID
}

// Close cleanly shuts the machine down: committed epochs are forced
// durable (Sync), the durable store is flushed and released, and the
// machine becomes unusable (subsequent operations report ErrBackend).
// Close after a Crash skips the sync — the simulated power is already
// off — but still releases the store, which remains recoverable.
// Machines without a durable store just become unusable.
func (m *Machine) Close() error {
	if m.closed {
		return nil
	}
	var firstErr error
	if !m.crashed {
		if _, err := m.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m.closed = true
	if m.durable != nil {
		if err := m.durablePiCL.DurableErr(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%w: %w", ErrBackend, err)
		}
		if err := m.durable.Close(); err != nil && firstErr == nil {
			firstErr = wrapStorageErr(err)
		}
		m.durable = nil
	}
	return firstErr
}

// DurablePath returns the store directory of a machine built with Open
// ("" otherwise) — handy for pointing picl-recover at it.
func (m *Machine) DurablePath() string {
	if m.durable == nil {
		return ""
	}
	return m.durable.Path()
}
