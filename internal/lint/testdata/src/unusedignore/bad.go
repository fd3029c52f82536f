// Package uitest exercises unused-ignore reporting: one directive that
// still suppresses a finding (stays silent) and one that outlived the
// code it covered (reported when its rule is in the executed set).
package uitest

import "picl/internal/mem"

func live(a, b mem.EpochID) bool {
	//lint:ignore eidcmp corpus: directive still covering a raw compare
	return a < b
}

//lint:ignore determinism historic suppression, the wall clock read moved away
func grow(n int) int {
	return n + 1
}
