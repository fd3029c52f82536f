// The guarded-field half of the lockheld corpus: fields after a mu
// mutex field are guarded; methods must hold mu on the path that
// touches them, Locked-suffix methods start with it held, non-methods
// may not touch guarded fields, and function literals start with no
// lock held.
package lhtest

import "sync"

type box struct {
	label string // declared before mu: unguarded
	mu    sync.Mutex
	n     int
	m     map[string]int
}

func newBox() *box {
	return &box{m: make(map[string]int)} // composite literal: construction
}

func (b *box) Add(k string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.m[k]++
	b.n++
}

func (b *box) bad() int { return b.n }

func (b *box) sizeLocked() int { return len(b.m) }

func (b *box) Label() string { return b.label }

func peek(b *box) int { return b.n }

func suppressed(b *box) int {
	//lint:ignore lockheld single-threaded test helper, no concurrent writers exist
	return b.n
}

// Released reads n after unlocking: a method that locks mu somewhere
// is not enough, the read's own path must hold it.
func (b *box) Released() int {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
	return b.n
}

// Merge holds b's mu, not o's.
func (b *box) Merge(o *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n += o.n
}

// Spawn's goroutine does not run under the lock its spawner holds.
func (b *box) Spawn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go func() { b.n++ }()
}

// Settle's deferred closure locks mu itself (exp.Runner.simulate's
// shape): clean.
func (b *box) Settle() {
	defer func() {
		b.mu.Lock()
		b.n = 0
		b.mu.Unlock()
	}()
}

// A package-level initializer is outside every method.
var total = func(b *box) int { return b.n }

// Each's callback runs while Each holds mu, but a function literal
// starts with no lock held wherever it runs: flagged.
func (b *box) Each(fn func(func() int)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	fn(func() int { return b.n })
}
