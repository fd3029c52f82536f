package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
)

// This file is the interprocedural substrate of the v2 engine: a
// module-wide static call graph over the already-type-checked package
// set. Nodes are the module's declared functions and methods; edges are
// direct calls resolved through go/types (interface dispatch and calls
// through function values stay unresolved on purpose — the analyzers
// that consume the graph treat such calls by their method name and
// receiver type instead, see effects.go). The graph also records, for
// every function, the packages its callers live in, which is what lets
// walorder distinguish "obligation discharged by an in-scope caller"
// from "obligation reaching code the analyzer cannot see".

// CallSite is one static call edge origin.
type CallSite struct {
	Pos    token.Pos
	Call   *ast.CallExpr
	Callee *types.Func
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Calls []CallSite
}

// CallGraph indexes the module's functions and their static call edges.
type CallGraph struct {
	// Nodes maps every declared module function to its node.
	Nodes map[*types.Func]*FuncNode
	// Callers maps a function (module or imported) to the module nodes
	// that contain a static call to it.
	Callers map[*types.Func][]*FuncNode
	// byName indexes Nodes by full name, for Canon.
	byName map[string]*types.Func
}

// Canon returns the module declaration of fn when there is one, else fn.
// Module packages are type-checked from source, but their imports
// resolve through export data, so a call into another module package
// names a different object than the callee's own declaration; the two
// share a full name.
func (cg *CallGraph) Canon(fn *types.Func) *types.Func {
	if _, ok := cg.Nodes[fn]; ok {
		return fn
	}
	if d, ok := cg.byName[fn.Origin().FullName()]; ok {
		return d
	}
	return fn
}

// buildCallGraph walks every function body once and records resolved
// call edges.
func buildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		Nodes:   make(map[*types.Func]*FuncNode),
		Callers: make(map[*types.Func][]*FuncNode),
		byName:  make(map[string]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				if fd.Body != nil {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						call, ok := n.(*ast.CallExpr)
						if !ok {
							return true
						}
						if callee := calleeFunc(pkg.Info, call); callee != nil {
							node.Calls = append(node.Calls, CallSite{Pos: call.Pos(), Call: call, Callee: callee})
						}
						return true
					})
				}
				cg.Nodes[fn] = node
				cg.byName[fn.FullName()] = fn
			}
		}
	}
	for _, node := range cg.Nodes {
		seen := make(map[*types.Func]bool)
		for i := range node.Calls {
			cs := &node.Calls[i]
			cs.Callee = cg.Canon(cs.Callee)
			if !seen[cs.Callee] {
				seen[cs.Callee] = true
				cg.Callers[cs.Callee] = append(cg.Callers[cs.Callee], node)
			}
		}
	}
	return cg
}

// CallerPaths returns the package paths containing static calls to fn.
func (cg *CallGraph) CallerPaths(fn *types.Func) []string {
	var out []string
	for _, n := range cg.Callers[fn] {
		out = append(out, n.Pkg.Path)
	}
	return out
}

// recvNamed returns the named type of a method's receiver (after
// pointer indirection), or nil for plain functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// srcCache reads and caches source files for fix construction and
// operand extraction. Run is single-threaded, so no locking.
type srcCache struct{ files map[string][]byte }

func newSrcCache() *srcCache { return &srcCache{files: make(map[string][]byte)} }

func (c *srcCache) file(name string) ([]byte, bool) {
	if b, ok := c.files[name]; ok {
		return b, b != nil
	}
	b, err := os.ReadFile(name)
	if err != nil {
		c.files[name] = nil
		return nil, false
	}
	c.files[name] = b
	return b, true
}

// slice returns the source text of [pos, end).
func (c *srcCache) slice(fset *token.FileSet, pos, end token.Pos) (string, bool) {
	p, e := fset.Position(pos), fset.Position(end)
	if p.Filename == "" || p.Filename != e.Filename || p.Offset > e.Offset {
		return "", false
	}
	b, ok := c.file(p.Filename)
	if !ok || e.Offset > len(b) {
		return "", false
	}
	return string(b[p.Offset:e.Offset]), true
}
