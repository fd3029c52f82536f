package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"strings"
)

// The effect layer abstracts each function into the sequence of durable
// storage operations it (transitively) performs. Effects are recognized
// two ways: intrinsically, from the callee's method name and receiver
// type — `AppendBlock` and `WriteLine` are the storage vocabulary
// whichever Backend/LogStore/ImageStore implementation sits behind the
// interface — and interprocedurally, from the bottom-up summary of a
// statically resolved module function. Summaries record both what a
// function provides (an undo append, an image or log sync) and what it
// still owes its callers (an image write or marker advance that is not
// ordered within the function itself). walorder.go turns unresolved
// obligations at call-graph roots into diagnostics, and reports a
// marker advance after an image sync wherever it occurs.
//
// One marker advance needs no log sync: the bulk ACS's commit
// (bulkCommit), after which recovery applies no undo entry. Its
// obligation carries the bulk mark and is discharged only where it
// reaches bulkEntry, the bulk ACS itself; reached from anywhere else —
// an ACS-gap commit skipping its log sync — it reports at the root like
// any other unordered advance.
//
// The walk is a source-order approximation of domination: an effect
// counts as "before" another if it appears earlier in the function
// body, whichever branch it sits on. The idiom this deliberately
// accepts is the bloom-probe dependency check (EvictDirty's
// `if filter.MayContain(l) { flushBuffer() }`): the flush on the hit
// path is what makes the subsequent in-place write safe, and the miss
// path is safe by the filter's no-false-negative guarantee — a dynamic
// argument the analyzer cannot see, so the source-order rule admits it
// while still catching the real bug shape (the write issued with no
// covering flush anywhere before it).

type effKind int

const (
	effNone effKind = iota
	effLogAppend
	effLogSync
	effImageWrite
	effImageSync
	effMarkerSet
	effFileSync    // fsync of a plain *os.File (temp-file staging, the commit append)
	effDirSync     // directory-handle fsync (SyncDir, dirf.Sync)
	effRename      // os.Rename
	effRewrite     // a file created or truncated (os.Create, os.WriteFile, O_CREATE/O_TRUNC, Truncate)
	effFileWriteAt // positional write to an open *os.File
	effCall        // statically resolved call into the module (summary applies)
)

// effEvent is one effect occurrence in a function body, in source
// order.
type effEvent struct {
	kind    effKind
	pos     token.Pos
	call    *ast.CallExpr // nil for method-value references
	callee  *types.Func   // resolved target (effCall and intrinsics)
	zeroArg bool          // marker Set with a constant-zero epoch
}

// obligation is an effect a function performs without establishing the
// ordering that justifies it; it propagates to callers until a caller
// orders it or a call-graph root reports it. bulk marks a marker
// advance made by bulkCommit, which bulkEntry discharges.
type obligation struct {
	pos   token.Pos
	chain []Related
	bulk  bool
}

// bulkCommit names the storage method that commits the bulk ACS without
// a log sync, and bulkEntry the one function whose call tree may reach
// it (storage.Dir.PersistBulk, core.PiCL.ForcePersist).
const (
	bulkCommit = "PersistBulk"
	bulkEntry  = "ForcePersist"
)

// effSummary is the bottom-up interprocedural summary of one function.
type effSummary struct {
	events []effEvent
	// provides*: calling this function establishes the respective
	// ordering fact for effects that follow the call (providesWriteAhead:
	// an undo append).
	providesWriteAhead bool
	providesImageSync  bool
	providesLogSync    bool
	// setsMarker: the function advances the marker (a non-primitive
	// marker Set, directly or through a callee).
	setsMarker bool
	// unordered*: obligations the function exports to its callers.
	unorderedImage  []obligation
	unorderedMarker []obligation
	// splitMarker holds the marker advances that follow an image sync
	// in this function: walorder reports them where they are.
	splitMarker []token.Pos
	// rewrites and writesInPlace feed walorder's marker shape check:
	// rewrites is any rename, create or truncate; writesInPlace a
	// positional write followed by an fsync of the same file. Both hold
	// for a function or any callee in its own package.
	rewrites      bool
	writesInPlace bool
}

// receiver type classes for intrinsic effect classification.
type recvClass int

const (
	clsNone recvClass = iota
	clsMarker
	clsImage
	clsLog
	clsOSFile
)

func classOf(t types.Type) recvClass {
	if t == nil {
		return clsNone
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj() == nil {
		return clsNone
	}
	name := n.Obj().Name()
	if pkg := n.Obj().Pkg(); pkg != nil && pkg.Path() == "os" {
		if name == "File" {
			return clsOSFile
		}
		return clsNone
	}
	// FileOps is storage's file seam: a raw file like *os.File, whose
	// fsync is no log sync, though its name holds "file".
	if name == "FileOps" {
		return clsOSFile
	}
	// Case-insensitive so unexported implementations (imageFile,
	// tornMarker) classify like their exported interfaces. Image is
	// tested before the log words: "ImageFile" is an image.
	lower := strings.ToLower(name)
	switch {
	case strings.Contains(lower, "marker"):
		return clsMarker
	case strings.Contains(lower, "image"):
		return clsImage
	case strings.Contains(lower, "log"),
		strings.Contains(lower, "backend"),
		strings.Contains(lower, "file"):
		return clsLog
	}
	return clsNone
}

// intrinsicEffect classifies a call (or method-value reference) to fn
// by the storage vocabulary. recvExpr is the receiver expression at the
// use site (distinguishes a directory-handle fsync from a file fsync).
func intrinsicEffect(fn *types.Func, recvExpr ast.Expr) effKind {
	if fn == nil {
		return effNone
	}
	name := fn.Name()
	cls := clsNone
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		cls = classOf(sig.Recv().Type())
	} else if fn.Pkg() != nil && fn.Pkg().Path() == "os" {
		switch name {
		case "Rename":
			return effRename
		case "Create", "WriteFile", "Truncate":
			return effRewrite
		}
		return effNone
	}
	if cls == clsOSFile {
		switch name {
		case "WriteAt":
			return effFileWriteAt
		case "Truncate":
			return effRewrite
		}
	}
	switch name {
	case "AppendBlock":
		return effLogAppend
	case "WriteLine", "PersistLineWrite":
		return effImageWrite
	case "SyncDir":
		return effDirSync
	case "Set":
		if cls == clsMarker {
			return effMarkerSet
		}
	case "Sync":
		switch cls {
		case clsImage:
			return effImageSync
		case clsLog:
			return effLogSync
		case clsOSFile:
			if sel, ok := recvExpr.(*ast.SelectorExpr); ok && sel.Sel.Name == "dirf" {
				return effDirSync
			}
			if id, ok := recvExpr.(*ast.Ident); ok && id.Name == "dirf" {
				return effDirSync
			}
			return effFileSync
		}
	}
	return effNone
}

// effEngine memoizes per-function summaries over the call graph.
type effEngine struct {
	cg      *CallGraph
	fset    *token.FileSet
	sums    map[*types.Func]*effSummary
	walking map[*types.Func]bool
}

func newEffEngine(cg *CallGraph, fset *token.FileSet) *effEngine {
	return &effEngine{
		cg:      cg,
		fset:    fset,
		sums:    make(map[*types.Func]*effSummary),
		walking: make(map[*types.Func]bool),
	}
}

// imageWritePrimitives define (rather than obligate) the image-write
// effect: the sink implementations and the checkpoint helper whose
// documented contract places the ordering obligation on callers.
func isImagePrimitive(fn *types.Func) bool {
	return fn.Name() == "WriteLine" || fn.Name() == "PersistLineWrite"
}

// isMarkerPrimitive reports whether fn is a marker store's Set — the
// commit append itself (its shape is checked by walorder rule 3, not
// rule 2) or a fault-injection wrapper delegating to one.
func isMarkerPrimitive(fn *types.Func) bool {
	if fn.Name() != "Set" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && classOf(sig.Recv().Type()) == clsMarker
}

// collectEvents walks one function body in source order and records
// every effect occurrence. Function literals are inlined at their
// syntactic position: the closures that matter here (retry wrappers,
// undo closures) run within the dynamic extent of the statement that
// builds them.
func (e *effEngine) collectEvents(node *FuncNode) []effEvent {
	if node.Decl.Body == nil {
		return nil
	}
	info := node.Pkg.Info
	var events []effEvent

	// funExprs are callee expressions of calls; a selector that IS the
	// callee is accounted for by its CallExpr, not as a method value.
	funExprs := make(map[ast.Expr]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			funExprs[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := calleeFunc(info, n)
			if callee == nil {
				return true
			}
			callee = e.cg.Canon(callee)
			var recvExpr ast.Expr
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				recvExpr = sel.X
			}
			kind := intrinsicEffect(callee, recvExpr)
			if kind == effNone && opensForRewrite(info, callee, n) {
				kind = effRewrite
			}
			if kind != effNone {
				ev := effEvent{kind: kind, pos: n.Pos(), call: n, callee: callee}
				if kind == effMarkerSet && len(n.Args) > 0 {
					if tv, ok := info.Types[n.Args[0]]; ok && tv.Value != nil &&
						tv.Value.Kind() == constant.Int {
						if v, exact := constant.Uint64Val(tv.Value); exact && v == 0 {
							ev.zeroArg = true
						}
					}
				}
				events = append(events, ev)
			} else if _, ok := e.cg.Nodes[callee]; ok {
				events = append(events, effEvent{kind: effCall, pos: n.Pos(), call: n, callee: callee})
			}
		case *ast.SelectorExpr:
			// Method value passed as an argument (retryDurable(now,
			// sink.Sync)): assume the receiver of the value eventually
			// calls it.
			if funExprs[n] {
				return true
			}
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				if kind := intrinsicEffect(fn, n.X); kind != effNone {
					events = append(events, effEvent{kind: kind, pos: n.Pos(), callee: fn})
				}
			}
		}
		return true
	})
	return events
}

// opensForRewrite reports whether call is os.OpenFile with O_CREATE or
// O_TRUNC in a constant flag argument.
func opensForRewrite(info *types.Info, fn *types.Func, call *ast.CallExpr) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "os" || fn.Name() != "OpenFile" || len(call.Args) < 2 {
		return false
	}
	tv, ok := info.Types[call.Args[1]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return false
	}
	flag, exact := constant.Int64Val(tv.Value)
	return exact && flag&int64(os.O_CREATE|os.O_TRUNC) != 0
}

// fileOf names the file a method call on an *os.File acts on: its
// receiver expression as written ("" for a method value).
func fileOf(ev effEvent) string {
	if ev.call == nil {
		return ""
	}
	if sel, ok := ast.Unparen(ev.call.Fun).(*ast.SelectorExpr); ok {
		return types.ExprString(sel.X)
	}
	return ""
}

// summary computes (and memoizes) fn's effect summary. Recursive call
// cycles contribute nothing: the first frame on the cycle sees an empty
// summary for the back edge, which is sound for obligations (a cycle
// cannot discharge ordering) and conservative for provides flags.
func (e *effEngine) summary(fn *types.Func) *effSummary {
	if s, ok := e.sums[fn]; ok {
		return s
	}
	node, ok := e.cg.Nodes[fn]
	if !ok || e.walking[fn] {
		return &effSummary{}
	}
	e.walking[fn] = true
	defer delete(e.walking, fn)

	s := &effSummary{events: e.collectEvents(node)}
	imgPrim := isImagePrimitive(fn)
	mkPrim := isMarkerPrimitive(fn)

	var writeAhead, imgSync, logSync bool
	written := make(map[string]bool) // files positionally written so far
	for _, ev := range s.events {
		switch ev.kind {
		case effLogAppend:
			writeAhead = true
		case effLogSync:
			logSync = true
		case effImageSync:
			imgSync = true
		case effFileWriteAt:
			written[fileOf(ev)] = true
		case effFileSync:
			if f := fileOf(ev); f != "" && written[f] {
				s.writesInPlace = true
			}
		case effDirSync:
			// W3 shape event; no ordering state here.
		case effRename, effRewrite:
			s.rewrites = true
		case effImageWrite:
			if !writeAhead && !imgPrim {
				s.unorderedImage = append(s.unorderedImage, obligation{
					pos: ev.pos,
					chain: []Related{{
						Pos:     e.fset.Position(ev.pos),
						Message: "the in-place image write (" + ev.callee.Name() + ")",
					}},
				})
			}
		case effMarkerSet:
			if mkPrim {
				break
			}
			s.setsMarker = true
			if imgSync {
				s.splitMarker = append(s.splitMarker, ev.pos)
			}
			if !ev.zeroArg && !logSync {
				s.unorderedMarker = append(s.unorderedMarker, obligation{
					pos: ev.pos,
					chain: []Related{{
						Pos:     e.fset.Position(ev.pos),
						Message: "the marker advance (" + ev.callee.FullName() + ")",
					}},
					bulk: fn.Name() == bulkCommit,
				})
			}
		case effCall:
			cs := e.summary(ev.callee)
			if cs.providesWriteAhead {
				writeAhead = true
			}
			if cs.setsMarker {
				s.setsMarker = true
				if imgSync {
					s.splitMarker = append(s.splitMarker, ev.pos)
				}
			}
			if cs.providesImageSync {
				imgSync = true
			}
			if cs.providesLogSync {
				logSync = true
			}
			if !writeAhead {
				for _, ob := range cs.unorderedImage {
					s.unorderedImage = append(s.unorderedImage, e.propagate(ev, ob))
				}
			}
			if !logSync {
				for _, ob := range cs.unorderedMarker {
					if !ob.bulk || fn.Name() != bulkEntry {
						s.unorderedMarker = append(s.unorderedMarker, e.propagate(ev, ob))
					}
				}
			}
			if ev.callee.Pkg() == fn.Pkg() {
				// W3's shape facts stay within a package: they describe
				// the storage layer's own commit path, not, say, the
				// fault injector's simulated power cut truncating a file.
				s.rewrites = s.rewrites || cs.rewrites
				s.writesInPlace = s.writesInPlace || cs.writesInPlace
			}
		}
	}
	s.providesWriteAhead = writeAhead
	s.providesImageSync = imgSync
	s.providesLogSync = logSync
	e.sums[fn] = s
	return s
}

// propagate rebases a callee obligation onto the caller's call site,
// extending the reported chain downward.
func (e *effEngine) propagate(ev effEvent, ob obligation) obligation {
	head := Related{
		Pos:     e.fset.Position(ob.pos),
		Message: fmt.Sprintf("reached via %s", ev.callee.FullName()),
	}
	chain := make([]Related, 0, len(ob.chain)+1)
	chain = append(chain, head)
	// Drop the callee-local head (it duplicates this position) when the
	// callee chain starts at the same spot.
	for _, r := range ob.chain {
		if r.Pos == head.Pos && len(chain) == 1 {
			chain[0].Message = head.Message + ": " + r.Message
			continue
		}
		chain = append(chain, r)
	}
	return obligation{pos: ev.pos, chain: chain, bulk: ob.bulk}
}
