// Package own declares the lock owner of the cross-package lockheld
// corpus: T's mu guards the fields declared after it.
package own

import "sync"

type T struct {
	Name string // declared before mu: unguarded
	mu   sync.Mutex
	N    int
}

// SizeLocked runs with t.mu held.
func (t *T) SizeLocked() int { return t.N }

// Size holds mu across SizeLocked: clean.
func (t *T) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.SizeLocked()
}

// Bad reaches SizeLocked with no lock held.
func Bad(t *T) int { return t.SizeLocked() }
