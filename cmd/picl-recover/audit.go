package main

import (
	"errors"
	"fmt"
	"os"

	"picl/internal/mem"
	"picl/internal/storage"
	"picl/internal/undolog"
)

// auditStore is the -log mode: recover a real on-disk durable store
// (the directory picl.Open maintains) and validate the structural
// invariants recovery depends on. Output is deterministic for a given
// directory, so harnesses can golden-match it. Returns the process exit
// code: 0 for a consistent store, 1 for any violation.
func auditStore(dir string) int {
	d, err := storage.OpenDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer d.Close()

	img, info, err := d.Recover()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("durable store audit: %s\n", dir)
	fmt.Printf("  marker epoch:       %d\n", info.Marker)
	fmt.Printf("  log blocks read:    %d\n", info.BlocksRead)
	if info.TornBytes > 0 {
		fmt.Printf("  log tail ignored:   %d bytes past the %d-block prefix the marker's commit names\n",
			info.TornBytes, info.BlocksRead)
	}
	if info.ImageTornBytes > 0 {
		fmt.Printf("  image torn batch:   %d bytes dropped; the marker is the commit record at byte %d\n",
			info.ImageTornBytes, info.MarkerAt)
	}
	switch {
	case info.ImagePadBytes > 0 && info.ImageTornBytes > 0:
		fmt.Printf("  image padding:      %d zero bytes behind the torn batch, dropped with it\n", info.ImagePadBytes)
	case info.ImagePadBytes > 0:
		fmt.Printf("  image padding:      %d zero bytes behind the sealed batches, kept for later commits to overwrite\n", info.ImagePadBytes)
	}
	fmt.Printf("  undo scan:          %d entries applied over %d blocks\n", info.Applied, info.Scanned)
	fmt.Printf("  recovered lines:    %d\n", img.Len())
	bound := fmt.Sprintf("at most %d per line: the next Open keeps the image", storage.CompactRatio)
	if info.Records > storage.CompactRatio*int64(info.Lines) {
		bound = fmt.Sprintf("more than %d per line: the next Open compacts the image", storage.CompactRatio)
	}
	fmt.Printf("  image records:      %d for %d live lines (%s)\n", info.Records, info.Lines, bound)

	violations := 0
	fail := func(format string, args ...any) {
		violations++
		fmt.Printf("  VIOLATION: "+format+"\n", args...)
	}

	// Structural invariants of the log the recovery scan relies on,
	// checked over the recovered prefix one block at a time.
	var prev mem.EpochID
	ordered := true
	err = d.EachBlock(func(b undolog.Block) error {
		if ordered && b.MaxValidTill.Before(prev) {
			ordered = false
			fail("undolog: block expiration tags out of order")
		}
		prev = b.MaxValidTill
		for _, e := range b.Entries {
			if !e.ValidFrom.Before(e.ValidTill) {
				fail("entry for line %v has empty validity [%d,%d)", e.Line, e.ValidFrom, e.ValidTill)
			}
			if e.ValidTill.After(b.MaxValidTill) {
				fail("entry for line %v outlives its block expiration (%d > %d)", e.Line, e.ValidTill, b.MaxValidTill)
			}
		}
		return nil
	})
	switch {
	case errors.Is(err, undolog.ErrCorruptBlock):
		fail("log reparse: %v", err)
	case err != nil:
		fail("log unreadable: %v", err)
	}

	if violations > 0 {
		fmt.Printf("store INCONSISTENT: %d violations\n", violations)
		return 1
	}
	fmt.Printf("store consistent: recovery reproduces the epoch-%d checkpoint\n", info.Marker)
	return 0
}
