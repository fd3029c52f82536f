// Package user misuses package own's lock owner, which it sees through
// export data: the same findings as inside own.
package user

import "lockmod/own"

// Use reaches SizeLocked with no lock held and reads the guarded N.
func Use(t *own.T) int {
	return t.SizeLocked() + t.N
}

// Fine goes through the owner's locking method and reads its
// unguarded field: clean.
func Fine(t *own.T) (int, string) { return t.Size(), t.Name }

// Wrapped embeds the owner: a promoted guarded field stays guarded.
type Wrapped struct{ *own.T }

func (w Wrapped) Count() int { return w.N }
