// Package lhtest exercises the lockheld analyzer: Locked-suffix
// methods reached without the owning mu, double-acquisition paths
// (direct, via a method, via a chain of methods), and the idioms that
// must stay clean — defer-unlock, early-return unlock, sibling
// objects, and Locked-to-Locked calls.
package lhtest

import "sync"

type jar struct {
	mu sync.Mutex
	n  int
}

func (j *jar) bump() {
	j.mu.Lock()
	j.n++
	j.mu.Unlock()
}

func (j *jar) sizeLocked() int { return j.n }

// Good holds mu across the Locked call; defer keeps it held.
func (j *jar) Good() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sizeLocked()
}

// Bad reaches a Locked method with no lock held.
func (j *jar) Bad() int {
	return j.sizeLocked()
}

// free is a plain function calling a Locked method with no lock
// held.
func free(j *jar) int {
	return j.sizeLocked()
}

// Deadlock re-enters mu through a locking method while holding it.
func (j *jar) Deadlock() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.bump()
}

func (j *jar) helper() { j.bump() }

// DeadChain reaches the second Lock through two hops; the chain is
// reported as related positions.
func (j *jar) DeadChain() {
	j.mu.Lock()
	j.helper()
	j.mu.Unlock()
}

// Seq releases before re-acquiring: clean.
func (j *jar) Seq() {
	j.mu.Lock()
	j.n++
	j.mu.Unlock()
	j.bump()
}

// DoubleDirect locks mu twice with no call in between.
func (j *jar) DoubleDirect() {
	j.mu.Lock()
	j.mu.Lock()
	j.mu.Unlock()
	j.mu.Unlock()
}

// EarlyExit uses the unlock-and-return idiom; the terminating branch's
// unlock must not leak into the fallthrough path.
func (j *jar) EarlyExit(ok bool) int {
	j.mu.Lock()
	if ok {
		j.mu.Unlock()
		return 0
	}
	defer j.mu.Unlock()
	return j.sizeLocked()
}

// twoJars holds a's mu while locking b's: different objects, clean.
func twoJars(a, b *jar) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.bump()
	return a.sizeLocked()
}

// drainLocked may call a sibling Locked method on its own receiver:
// the contract says the caller of drainLocked already holds mu.
func (j *jar) drainLocked() int {
	return j.sizeLocked()
}

// suppressed: an intentional lock-free Locked call under a directive.
func (j *jar) peek() int {
	//lint:ignore lockheld single-goroutine setup path, mu not shared yet
	return j.sizeLocked()
}
