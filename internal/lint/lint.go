// Package lint is picl-lint's engine: a stdlib-only static-analysis
// framework over go/parser, go/ast and go/types (no golang.org/x/tools)
// that checks the PiCL-specific invariants the Go compiler cannot see —
// simulator determinism, 4-bit epoch-tag arithmetic, the mutex
// discipline of the module's lock owners, the durable store's
// write-ahead ordering contract, and the pairing of hot-path counters
// with trace events. The ROADMAP's tier-1 gate runs `go vet` and
// `go test -race`, but race detection and the crash/fuzz harnesses are
// dynamic and probabilistic; the epoch and persist-ordering bug class
// that persistence logic produces (silent tag wraparound, an in-place
// write overtaking its undo coverage) is exactly the class a static
// pass catches at CI time.
//
// The engine loads every non-test package of the module (see load.go),
// builds a module-wide call graph (callgraph.go) for the analyzers
// that reason across function boundaries (walorder.go via effects.go,
// lockheld.go), runs each Analyzer, and filters diagnostics through
// `//lint:ignore <rule> <reason>` suppression comments placed on the
// offending line or the line directly above it; a directive that
// suppresses nothing is itself a finding. cmd/picl-lint exits nonzero
// on any unsuppressed diagnostic, which is what makes the `make ci`
// gate fail builds; it can also write findings as SARIF (output.go)
// and apply mechanical fixes (fix.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Related is a secondary position attached to a diagnostic — the
// interprocedural analyzers use it to spell out the call chain from
// the reported function down to the primitive effect.
type Related struct {
	Pos     token.Position
	Message string
}

// TextEdit is one byte-range replacement of a suggested fix.
type TextEdit struct {
	Filename string
	// Start and End are byte offsets into the file; [Start, End) is
	// replaced by New.
	Start int
	End   int
	New   string
}

// Fix is a mechanical rewrite that resolves a diagnostic (see
// ApplyFixes and picl-lint's -fix flag).
type Fix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding: a position, the rule that fired, a stable
// finding code within the rule, a human-readable message, and
// optionally the related call chain and a suggested fix.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	// Code subdivides a rule into stable finding IDs ("image-unordered",
	// "double-lock", ...); empty for rules with a single finding shape.
	Code    string
	Message string
	Related []Related
	Fix     *Fix
}

// RuleID is the stable machine-readable identifier used by the SARIF
// writer: "rule" or "rule/code".
func (d Diagnostic) RuleID() string {
	if d.Code == "" {
		return d.Rule
	}
	return d.Rule + "/" + d.Code
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.RuleID(), d.Message)
	for _, r := range d.Related {
		s += fmt.Sprintf("\n\t%s:%d:%d: %s", r.Pos.Filename, r.Pos.Line, r.Pos.Column, r.Message)
	}
	return s
}

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("picl/internal/sim"); scope-restricted
	// analyzers key off it.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named invariant check. Exactly one of Run (invoked
// once per package) and RunModule (invoked once over the whole package
// set, with the call graph available) is set.
type Analyzer struct {
	// Name is the rule name used in output and //lint:ignore comments.
	Name string
	// Doc is a one-line description for `picl-lint -rules`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
	// RunModule inspects the whole module at once — the interprocedural
	// analyzers (walorder, lockheld) need every package's call edges.
	RunModule func(*ModulePass)
}

// Pass carries one (analyzer, package) execution.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	src      *srcCache
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a fully built finding; Pos/Rule are filled in from
// pos and the analyzer.
func (p *Pass) Report(pos token.Pos, d Diagnostic) {
	d.Pos = p.Pkg.Fset.Position(pos)
	d.Rule = p.Analyzer.Name
	p.report(d)
}

// TypeOf resolves the type of an expression (nil if untracked).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Src returns the source text of [pos, end), reading the file the
// loader parsed it from. ok is false when the file cannot be read
// (fix construction is skipped, the diagnostic still reports).
func (p *Pass) Src(pos, end token.Pos) (string, bool) {
	return p.src.slice(p.Pkg.Fset, pos, end)
}

// ModulePass carries one module-wide analyzer execution.
type ModulePass struct {
	Analyzer *Analyzer
	Mod      *Module
	report   func(Diagnostic)
}

// Report records a fully built finding at pos.
func (mp *ModulePass) Report(pos token.Pos, d Diagnostic) {
	d.Pos = mp.Mod.Fset.Position(pos)
	d.Rule = mp.Analyzer.Name
	mp.report(d)
}

// Module is the whole-program view handed to RunModule analyzers.
type Module struct {
	Pkgs []*Package
	Fset *token.FileSet
	cg   *CallGraph
}

// CallGraph returns the module call graph, built on first use and
// shared by every module analyzer in the same Run.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m.Pkgs)
	}
	return m.cg
}

// All returns the standard analyzer set in documentation order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, EIDCmp, LockHeld, WALOrder, ObsHook}
}

// ignoreKey locates a suppression: one rule on one line of one file.
type ignoreKey struct {
	file string
	line int
	rule string
}

// ignoreRec is one suppression directive with usage tracking for the
// unused-ignore check.
type ignoreRec struct {
	pos  token.Position
	rule string
	used bool
}

// IgnorePrefix introduces a suppression comment:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed at the end of the offending line or on the line directly above
// it. The reason is mandatory — an ignore without one is itself a
// diagnostic (rule "ignore"), so suppressions stay auditable.
const IgnorePrefix = "lint:ignore"

// collectIgnores scans a package's comments for suppression directives.
// Malformed directives are reported as diagnostics via report.
func collectIgnores(pkg *Package, ignores map[ignoreKey]*ignoreRec, report func(Diagnostic)) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, IgnorePrefix))
				if len(fields) < 2 {
					report(Diagnostic{
						Pos:  pos,
						Rule: "ignore",
						Message: fmt.Sprintf(
							"malformed suppression: want //%s <rule> <reason>", IgnorePrefix),
					})
					continue
				}
				for _, rule := range strings.Split(fields[0], ",") {
					ignores[ignoreKey{file: pos.Filename, line: pos.Line, rule: rule}] =
						&ignoreRec{pos: pos, rule: rule}
				}
			}
		}
	}
}

// Run applies the analyzers to every package, drops suppressed
// findings, reports //lint:ignore directives that suppressed nothing
// (rule "unused-ignore"), and returns the rest sorted by position then
// rule. Only directives naming a rule in analyzers can be stale, so
// running a rule subset never mislabels another rule's suppression.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ignores := make(map[ignoreKey]*ignoreRec)
	for _, pkg := range pkgs {
		collectIgnores(pkg, ignores, func(d Diagnostic) { diags = append(diags, d) })
	}
	suppressed := func(d Diagnostic) bool {
		if rec := ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Rule}]; rec != nil {
			rec.used = true
			return true
		}
		if rec := ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Rule}]; rec != nil {
			rec.used = true
			return true
		}
		return false
	}
	report := func(d Diagnostic) {
		if !suppressed(d) {
			diags = append(diags, d)
		}
	}

	src := newSrcCache()
	var mod *Module
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, src: src, report: report})
			}
		case a.RunModule != nil:
			if mod == nil {
				mod = &Module{Pkgs: pkgs}
				if len(pkgs) > 0 {
					mod.Fset = pkgs[0].Fset
				}
			}
			a.RunModule(&ModulePass{Analyzer: a, Mod: mod, report: report})
		}
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, rec := range ignores {
		if !rec.used && ran[rec.rule] {
			diags = append(diags, Diagnostic{
				Pos:  rec.pos,
				Rule: "unused-ignore",
				Message: fmt.Sprintf(
					"//%s %s suppresses no finding; delete the stale directive", IgnorePrefix, rec.rule),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// isNamed reports whether t (after pointer indirection) is the named
// type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// calleeFunc resolves a call's target to its *types.Func (nil for
// builtins, conversions, and indirect calls through variables).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// modulePath is the module all analyzers treat as "ours".
const modulePath = "picl"

// inScope reports whether a package path sits inside one of the given
// package subtrees.
func inScope(path string, scope []string) bool {
	for _, p := range scope {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
