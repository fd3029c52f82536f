package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Determinism enforces the PR-1 byte-identical-output contract: the
// packages that produce simulation results and statistics must not read
// wall clocks, call PRNGs, or let Go's randomized map iteration order
// reach their outputs. A violation here does not crash — it produces a
// run that silently differs between -j1 and -j8, which is the worst kind
// of experiment bug.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, math/rand, order-sensitive map iteration, and scheduler-ordered shared appends in the simulation and stats packages",
	Run:  runDeterminism,
}

// deterministicScope is the set of package subtrees under the contract.
// cmd/* binaries and test files are exempt: they sit outside the
// simulated world and may time or randomize freely. crashplan and
// storage/fault are in scope because both promise seed-reproducible
// schedules: a crash plan or fault trace must replay identically from
// its recorded seed.
var deterministicScope = []string{
	modulePath + "/internal/sim",
	modulePath + "/internal/cache",
	modulePath + "/internal/nvm",
	modulePath + "/internal/exp",
	modulePath + "/internal/obs",
	modulePath + "/internal/crashplan",
	modulePath + "/internal/storage/fault",
}

// deterministicExempt names the serving layer explicitly: these
// packages sit ABOVE the deterministic world (claim polling, latency
// and request plans are wall-clock and PRNG business) and must stay
// exempt even if the scope list above ever grows a parent subtree of
// theirs. The boundary is deliberate — everything the daemon returns
// is produced by in-scope packages, so the response bytes stay
// deterministic while the serving machinery times and randomizes
// freely.
var deterministicExempt = []string{
	modulePath + "/internal/serve",
	modulePath + "/cmd/picl-simd",
	modulePath + "/cmd/picl-load",
}

var bannedImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func inDeterministicScope(path string) bool {
	for _, p := range deterministicExempt {
		if path == p || strings.HasPrefix(path, p+"/") {
			return false
		}
	}
	for _, p := range deterministicScope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	if !inDeterministicScope(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && bannedImports[path] {
				pass.Reportf(imp.Pos(),
					"import of %s in a deterministic package; derive pseudo-randomness from trace state instead (cf. mem.PayloadFor)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				(fn.Name() == "Now" || fn.Name() == "Since") {
				pass.Reportf(call.Pos(),
					"time.%s reads the wall clock; inject a clock from the binary (cf. exp.Runner.Clock) so results cannot depend on host timing", fn.Name())
			}
			return true
		})
		checkMapRanges(pass, f)
		checkGoroutineAppends(pass, f)
	}
}

// checkGoroutineAppends flags `x = append(x, ...)` inside a spawned
// goroutine when x is captured from the enclosing scope: concurrent
// appends interleave in scheduler order (and race), so the resulting
// element order differs run to run — the shard/merge bug class. The
// worker pools (exp.RunAll, ForEachCtx) write results into per-index
// slots instead and merge after the barrier; appends to variables
// declared inside the goroutine remain free.
func checkGoroutineAppends(pass *Pass, f *ast.File) {
	info := pass.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, rhs := range as.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				for _, lhs := range as.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					obj := info.ObjectOf(id)
					if obj == nil || obj.Pos() == token.NoPos {
						continue
					}
					if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
						pass.Reportf(as.Pos(),
							"append to captured %q inside a goroutine is scheduler-ordered (and a data race); write into a per-index slot and merge deterministically after the barrier", id.Name)
					}
				}
			}
			return true
		})
		return true
	})
}

// checkMapRanges flags `for k, v := range m` over maps unless the loop is
// provably order-insensitive: either the body is commutative (every
// statement is an order-independent accumulation) or the loop only
// collects elements into slices that a later statement in the same block
// sorts (the collect-then-sort idiom, e.g. exp.Runner.SortedKeys).
func checkMapRanges(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		var stmts []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			return true
		}
		for i, s := range stmts {
			rng, ok := s.(*ast.RangeStmt)
			if !ok {
				continue
			}
			t := pass.TypeOf(rng.X)
			if t == nil {
				continue
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				continue
			}
			if commutativeStmts(rng.Body.List) {
				continue
			}
			if collectThenSort(pass, rng, stmts[i+1:]) {
				continue
			}
			pass.Reportf(rng.Pos(),
				"map iteration order is randomized and this loop body is order-sensitive; collect keys and sort first, or make the body commutative")
		}
		return true
	})
}

// commutativeStmts reports whether executing the statements once per map
// entry yields the same state regardless of entry order.
func commutativeStmts(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if !commutativeStmt(s) {
			return false
		}
	}
	return true
}

func commutativeStmt(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
			// Accumulations into fixed targets commute across entries.
			return true
		case token.ASSIGN:
			// m2[k] = v writes a distinct cell per distinct key.
			for _, l := range s.Lhs {
				if _, ok := ast.Unparen(l).(*ast.IndexExpr); !ok {
					return false
				}
			}
			return true
		}
		return false
	case *ast.IncDecStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "delete"
	case *ast.IfStmt:
		if s.Init != nil && !commutativeStmt(s.Init) {
			return false
		}
		if !commutativeStmts(s.Body.List) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return commutativeStmts(e.List)
		case *ast.IfStmt:
			return commutativeStmt(e)
		}
		return false
	case *ast.BlockStmt:
		return commutativeStmts(s.List)
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	}
	return false
}

// collectThenSort accepts the idiom where the range body only appends to
// collector slices and a later statement in the same enclosing block
// passes one of those collectors to sort.* or slices.*.
func collectThenSort(pass *Pass, rng *ast.RangeStmt, following []ast.Stmt) bool {
	info := pass.Pkg.Info
	collectors := map[types.Object]bool{}
	for _, s := range rng.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) ||
			len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return false
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			return false
		}
		obj := info.ObjectOf(lhs)
		if obj == nil {
			return false
		}
		collectors[obj] = true
	}
	if len(collectors) == 0 {
		return false
	}
	for _, s := range following {
		sorted := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && collectors[info.ObjectOf(id)] {
					sorted = true
				}
			}
			return true
		})
		if sorted {
			return true
		}
	}
	return false
}
