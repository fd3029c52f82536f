package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsHook enforces the observability pairing invariant: in the engine
// packages that both count and trace (internal/core, internal/nvm), any
// function that updates a stats counter — a stats.Handle/Counters add,
// or a field bump on an nvm.Stats bag — must also emit an obs event on
// some path through the same function. Counters and traces describe the
// same physical events; a counter bumped without a paired emit produces
// a Perfetto timeline that silently disagrees with the metrics export,
// which is far harder to notice than a missing number.
var ObsHook = &Analyzer{
	Name: "obshook",
	Doc:  "stats-counter updates in internal/core and internal/nvm must have a paired obs-event emit in the same function",
	Run:  runObsHook,
}

// obsHookScope is the set of package subtrees under the pairing
// contract: the two engine layers whose counters all have event-stream
// twins. The stats/cache/sim layers are exempt — they host aggregation
// and plumbing, not the counted events themselves.
var obsHookScope = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/nvm",
}

func inObsHookScope(path string) bool {
	for _, p := range obsHookScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runObsHook(pass *Pass) {
	if !inObsHookScope(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			statsPos := statsUpdatePos(pass, fn.Body)
			if !statsPos.IsValid() || emitsObsEvent(pass, fn.Body) {
				continue
			}
			pass.Reportf(statsPos,
				"%s updates a stats counter but never emits an obs event; pair the counter with a Tracer.Event (or obs.Emit) so the trace timeline cannot diverge from the metrics", fn.Name.Name)
		}
	}
}

// statsUpdatePos returns the position of the first stats-counter update
// in body: a call to an Add/Set method of internal/stats (covers both
// stats.Handle hot paths and *stats.Counters), or an increment /
// compound assignment whose target is a field of an nvm.Stats value
// (c.stats.DRAMHits++, c.stats.Bytes[op] += n). Whole-bag replacement
// (c.stats = Stats{}) is a reset, not an event count, and the selector
// check excludes it naturally: its assignment target is the Controller
// field, not a field of the Stats bag. Merge paths are exempt too: an
// assignment whose right-hand side itself reads an nvm.Stats field
// (s.BusyCycles += other.BusyCycles) folds counts that were already
// traced by whichever controller produced them — the benchmark's Fig. 9
// workload totals its per-cell bags this way — so no new emit is owed.
func statsUpdatePos(pass *Pass, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(pass.Pkg.Info, n)
			if fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == modulePath+"/internal/stats" &&
				(fn.Name() == "Add" || fn.Name() == "Set") {
				pos = n.Pos()
			}
		case *ast.IncDecStmt:
			if isNVMStatsField(pass, n.X) {
				pos = n.Pos()
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, r := range n.Rhs {
				if readsNVMStatsField(pass, r) {
					return true // merge/fold of already-traced counts
				}
			}
			for _, l := range n.Lhs {
				if isNVMStatsField(pass, l) {
					pos = n.Pos()
					break
				}
			}
		}
		return true
	})
	return pos
}

// readsNVMStatsField reports whether any subexpression of e reads a
// field of an nvm.Stats value — the signature of a merge path.
func readsNVMStatsField(pass *Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isNVMStatsField(pass, ex) {
			found = true
		}
		return true
	})
	return found
}

// isNVMStatsField reports whether e selects (possibly through an index)
// a field of an nvm.Stats-typed value.
func isNVMStatsField(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == modulePath+"/internal/nvm" &&
		named.Obj().Name() == "Stats"
}

// emitsObsEvent reports whether body contains any call into the obs
// package: a Tracer.Event / Ring.Event method call (the interface method
// belongs to internal/obs, so both resolve here) or a package function
// such as obs.Emit.
func emitsObsEvent(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Pkg.Info, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == modulePath+"/internal/obs" {
			found = true
		}
		return true
	})
	return found
}
