package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// WALOrder statically enforces the durable store's three-rule
// write-ahead ordering contract (DESIGN.md §10.2, internal/storage
// package doc):
//
//	W1 (image-unordered): an in-place image write (WriteLine /
//	    PersistLineWrite) must be preceded, on every path the analyzer
//	    can see, by an undo-log AppendBlock — otherwise the commit that
//	    carries the write can seal it with no undo entry to roll it
//	    back. The append need not be synced: the write only stages, and
//	    the commit that needs the entry syncs the log first (W2).
//	W2 (marker-unordered, marker-split): the commit that advances the
//	    persisted-epoch marker (marker Set) must be preceded by a log
//	    Sync — the commit names the synced log prefix, and recovery at
//	    its epoch reads only that — and the image records it seals
//	    travel in that commit's own write: an image Sync ahead of it on
//	    the same path appends them separately, unsealed. The one
//	    exception is the bulk ACS's commit (PersistBulk), after which
//	    recovery applies no undo entry; only ForcePersist's call tree
//	    may reach it, and reached from anywhere else it is an unordered
//	    advance.
//	W3 (marker-not-in-place, marker-rewrite, replace-*): inside
//	    internal/storage, a marker Set appends its commit in place — a
//	    positional write to the already-open image file, then an fsync
//	    of that file — and never creates, truncates or renames a file
//	    (a truncating rewrite can lose sealed batches). Every os.Rename
//	    (Reset's image compaction) must be the atomic replace: write a
//	    *.tmp staging file, fsync it, rename over the live name, fsync
//	    the directory. An unsynced rename can vanish or publish a torn
//	    file.
//
// W1 and W2 are interprocedural: effects.go propagates unordered
// writes bottom-up through the call graph, a caller that establishes
// the ordering before the call discharges the obligation, and only
// call-graph roots (functions with no in-scope static caller) report —
// with the call chain to the primitive attached as related positions.
// A split commit is reported in the function that syncs the image and
// then advances the marker, directly or through a callee.
var WALOrder = &Analyzer{
	Name:      "walorder",
	Doc:       "write-ahead ordering: undo append before image writes, log sync before the commit that advances the marker and carries the image records (but for the bulk ACS's), in-place positional-write+fsync commit append, atomic tmp/fsync/rename/dir-fsync file replace",
	RunModule: runWALOrder,
}

// walScope is where the contract applies: the durable store itself and
// the two packages that drive it. Baseline checkpoint schemes under
// internal/baseline intentionally skip undo logging and stay exempt.
var walScope = []string{
	modulePath + "/internal/storage",
	modulePath + "/internal/core",
	modulePath + "/internal/checkpoint",
}

// walStoragePrefix bounds rule W3 to the storage layer, where the
// image file lives.
const walStoragePrefix = modulePath + "/internal/storage"

func runWALOrder(mp *ModulePass) {
	cg := mp.Mod.CallGraph()
	eng := newEffEngine(cg, mp.Mod.Fset)

	// Sort nodes by position so summary construction and reporting are
	// deterministic across runs.
	nodes := make([]*FuncNode, 0, len(cg.Nodes))
	for _, n := range cg.Nodes {
		if inScope(n.Pkg.Path, walScope) {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })

	for _, node := range nodes {
		s := eng.summary(node.Fn)
		if isWALRoot(cg, node) {
			for _, ob := range s.unorderedImage {
				mp.Report(ob.pos, Diagnostic{
					Code: "image-unordered",
					Message: "in-place image write is not preceded by an undo-log append on this path; " +
						"append the covering undo block first (write-ahead rule 1)",
					Related: relatedTail(mp.Mod.Fset.Position(ob.pos), ob),
				})
			}
			for _, ob := range s.unorderedMarker {
				msg := "persisted-epoch marker is advanced without a preceding log sync; " +
					"sync the undo log before the commit that advances the marker (ordering rule 2)"
				if ob.bulk {
					msg = "the bulk ACS's commit (" + bulkCommit + ") skips the log sync and is reached outside " +
						bulkEntry + "'s call tree; any other commit must sync the log first (ordering rule 2)"
				}
				mp.Report(ob.pos, Diagnostic{
					Code:    "marker-unordered",
					Message: msg,
					Related: relatedTail(mp.Mod.Fset.Position(ob.pos), ob),
				})
			}
		}
		for _, pos := range s.splitMarker {
			mp.Report(pos, Diagnostic{
				Code: "marker-split",
				Message: "persisted-epoch marker is advanced after an image sync; the image records a commit " +
					"seals travel in the commit's own write, not in a separate image append (ordering rule 2)",
			})
		}
		if strings.HasPrefix(node.Pkg.Path, walStoragePrefix) {
			checkReplaceShape(mp, node, s)
		}
	}
}

// isWALRoot reports whether no other in-scope function statically calls
// node — those callers would have checked (or inherited) the
// obligation already, so only roots report, keeping one violation to
// one diagnostic. Self-recursion does not make a function a non-root.
func isWALRoot(cg *CallGraph, node *FuncNode) bool {
	for _, caller := range cg.Callers[node.Fn] {
		if caller.Fn != node.Fn && inScope(caller.Pkg.Path, walScope) {
			return false
		}
	}
	return true
}

// relatedTail drops a chain whose only entry restates the reported
// position (direct, intra-function violations need no chain);
// propagated obligations keep theirs even at length one — the entry
// points into the callee.
func relatedTail(at token.Position, ob obligation) []Related {
	if len(ob.chain) == 1 && ob.chain[0].Pos == at {
		return nil
	}
	return ob.chain
}

// checkReplaceShape enforces W3 on one storage-layer function: every
// os.Rename must sit inside the write-tmp / fsync / rename / dir-fsync
// sequence, and every marker Set implementation must append its commit
// in place and fsync it (or delegate to a marker store that does),
// without creating, truncating or renaming anything.
func checkReplaceShape(mp *ModulePass, node *FuncNode, s *effSummary) {
	tmpSrcs := tmpTainted(node)
	var sawFileSync bool
	for i, ev := range s.events {
		switch ev.kind {
		case effFileSync:
			sawFileSync = true
		case effRename:
			if !sawFileSync {
				mp.Report(ev.pos, Diagnostic{
					Code: "replace-unsynced",
					Message: "os.Rename publishes a staging file that was not fsynced first; " +
						"a crash can publish a torn file (atomic-replace rule 3)",
				})
			}
			if !dirSyncFollows(s.events[i+1:]) {
				mp.Report(ev.pos, Diagnostic{
					Code: "replace-no-dirsync",
					Message: "no directory fsync after os.Rename; the rename itself may not be durable " +
						"(atomic-replace rule 3)",
				})
			}
			if len(ev.call.Args) > 0 && !isTmpExpr(ev.call.Args[0], tmpSrcs) {
				mp.Report(ev.pos, Diagnostic{
					Code: "replace-not-tmp",
					Message: "os.Rename source is not a *.tmp staging file; replace files via " +
						"write-temp, fsync, rename, dir-fsync (atomic-replace rule 3)",
				})
			}
		}
	}
	if !isMarkerPrimitive(node.Fn) {
		return
	}
	switch {
	case s.rewrites:
		mp.Report(node.Decl.Name.Pos(), Diagnostic{
			Code: "marker-rewrite",
			Message: fmt.Sprintf("%s creates, truncates or renames a file; a marker Set must append its "+
				"commit to the open image file so a crash can tear only the commit in flight (in-place commit rule 3)",
				node.Fn.FullName()),
		})
	case !s.writesInPlace && !delegatesMarkerSet(node, s):
		what := "does not write its commit in place"
		for _, ev := range s.events {
			if ev.kind == effFileWriteAt {
				what = "writes its commit but never fsyncs that file before returning"
				break
			}
		}
		mp.Report(node.Decl.Name.Pos(), Diagnostic{
			Code: "marker-not-in-place",
			Message: fmt.Sprintf("%s %s; append the commit with WriteAt on the open image file, "+
				"then fsync that file, or delegate to a marker store that does (in-place commit rule 3)",
				node.Fn.FullName(), what),
		})
	}
}

// dirSyncFollows reports whether a directory fsync appears in the
// remaining event stream.
func dirSyncFollows(events []effEvent) bool {
	for _, ev := range events {
		if ev.kind == effDirSync {
			return true
		}
	}
	return false
}

// delegatesMarkerSet reports whether a marker Set forwards the write
// to another marker store's Set (the fault-injection wrapper pattern).
// A helper that writes in place is already covered by writesInPlace.
func delegatesMarkerSet(node *FuncNode, s *effSummary) bool {
	for _, ev := range s.events {
		if ev.kind == effMarkerSet && ev.callee != node.Fn {
			return true
		}
	}
	return false
}

// tmpTainted collects the local variables assigned from an expression
// containing a ".tmp" string literal — the staging-path idiom
// (`tmp := path + ".tmp"`).
func tmpTainted(node *FuncNode) map[string]bool {
	out := make(map[string]bool)
	if node.Decl.Body == nil {
		return out
	}
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if exprMentionsTmp(as.Rhs[i], out) {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// exprMentionsTmp reports whether e contains a ".tmp" string literal or
// an already-tainted identifier.
func exprMentionsTmp(e ast.Expr, tainted map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BasicLit:
			if n.Kind == token.STRING && strings.Contains(n.Value, ".tmp") {
				found = true
			}
		case *ast.Ident:
			if tainted[n.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isTmpExpr reports whether a rename source expression is recognizably
// a staging path: a tainted identifier or an expression mentioning
// ".tmp" directly.
func isTmpExpr(e ast.Expr, tainted map[string]bool) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return tainted[id.Name]
	}
	return exprMentionsTmp(e, tainted)
}
