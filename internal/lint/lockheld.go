package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockHeld enforces the mutex convention the repo's lock owners
// (stats.Counters, exp.Runner, serve.Store) follow: a struct field
// declared after a `mu sync.Mutex`/`sync.RWMutex` field is guarded by
// that mutex, and a method whose name ends in "Locked" runs with its
// receiver's mu already held. go test -race can only catch the
// schedules it happens to run; this rule checks the access paths
// themselves. It walks every function with a source-order lock-state
// machine and the call graph's acquire summaries:
//
//	field-foreign: a guarded field touched outside the owner's methods.
//	field-unlocked: a guarded field touched by an owner method on a
//	    path where the selected object's mu is not held (a ...Locked
//	    method starts with its receiver's mu held).
//	locked-no-lock: a call to an owner's ...Locked method on a path
//	    where the owner's mu is not held (and the caller is not itself
//	    a ...Locked method of the same receiver).
//	double-lock: acquiring a mu (directly or by calling a method whose
//	    summary acquires it, transitively) while the same object's mu
//	    is already held — an immediate deadlock with sync.Mutex.
//
// Function literals — deferred, spawned with go, or called in place —
// start with no lock held: a closure that touches a guarded field
// locks mu itself. Keyed composite literals name fields by identifier,
// not selector, so constructing an owner before it is shared is exempt.
//
// Owners and guarded fields are matched by package path and name, and
// callees through CallGraph.Canon: another module package sees an
// owner through export data, as objects distinct from its declaration,
// and its misuse must not slip through on that.
var LockHeld = &Analyzer{
	Name:      "lockheld",
	Doc:       "mutex discipline: fields after mu only touched by the owner's methods with mu held; ...Locked methods only reachable with mu held; double-acquisition paths flagged",
	RunModule: runLockHeld,
}

type lockKind int

const (
	lockNone lockKind = iota
	lockRead
	lockEx
)

// acqInfo summarizes whether calling a method acquires its own
// receiver's mu (directly or transitively), with the chain down to the
// Lock call site.
type acqInfo struct {
	kind  lockKind
	chain []Related
}

type lockEngine struct {
	cg   *CallGraph
	fset *token.FileSet
	// owned holds the typeKey of each named struct type with a mu
	// mutex field, and guarded the fields each declares after its mu,
	// as the owner's typeKey, ".", and the field's name.
	owned   map[string]bool
	guarded map[string]bool
	acq     map[*types.Func]*acqInfo
	walking map[*types.Func]bool
}

func runLockHeld(mp *ModulePass) {
	cg := mp.Mod.CallGraph()
	eng := &lockEngine{
		cg:      cg,
		fset:    mp.Mod.Fset,
		acq:     make(map[*types.Func]*acqInfo),
		walking: make(map[*types.Func]bool),
	}
	eng.owned, eng.guarded = muOwnedTypes(mp.Mod.Pkgs)
	if len(eng.owned) == 0 {
		return
	}

	nodes := make([]*FuncNode, 0, len(cg.Nodes))
	for _, n := range cg.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Decl.Pos() < nodes[j].Decl.Pos() })

	for _, node := range nodes {
		if node.Decl.Body == nil {
			continue
		}
		st := make(lockState)
		// A ...Locked method's contract is that its receiver's mu is
		// held on entry.
		if eng.owned[typeKey(recvNamed(node.Fn))] &&
			strings.HasSuffix(node.Fn.Name(), "Locked") {
			if key := canonExpr(node.Pkg.Info, recvIdent(node.Decl)); key != "" {
				st[key] = lockEx
			}
		}
		w := &lockWalker{eng: eng, pkg: node.Pkg, fn: node.Fn, mp: mp}
		w.walk(node.Decl.Body, st)
	}
	// Package-level initializers run outside every method.
	for _, pkg := range mp.Mod.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					w := &lockWalker{eng: eng, pkg: pkg, mp: mp}
					w.walk(gd, make(lockState))
				}
			}
		}
	}
}

func isMutex(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// muOwnedTypes finds the named struct types with a `mu` mutex field —
// the owners whose Locked/lock protocol the analyzer enforces — and
// the fields each declares after mu, which mu guards, keyed as
// lockEngine keys them.
func muOwnedTypes(pkgs []*Package) (owned, guarded map[string]bool) {
	owned = make(map[string]bool)
	guarded = make(map[string]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			key := typeKey(named)
			for i := 0; i < st.NumFields(); i++ {
				switch fld := st.Field(i); {
				case owned[key]:
					guarded[key+"."+fld.Name()] = true
				case fld.Name() == "mu" && isMutex(fld.Type()):
					owned[key] = true
				}
			}
		}
	}
	return owned, guarded
}

// typeKey names a named type by its package path and name ("" for
// nil): what its declaration and another package's export-data view of
// it share.
func typeKey(n *types.Named) string {
	if n == nil {
		return ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldOwner returns the named struct type that declares the field a
// selection selects, following its path through embedded fields (nil
// for a field of an unnamed struct).
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	for i, j := range s.Index() {
		if p, ok := types.Unalias(t).(*types.Pointer); ok {
			t = p.Elem()
		}
		t = types.Unalias(t)
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		if i == len(s.Index())-1 {
			n, _ := t.(*types.Named)
			return n
		}
		t = st.Field(j).Type()
	}
	return nil
}

// lockState maps canonical receiver expressions ("the variable r",
// "the field s.box") to the lock they hold.
type lockState map[string]lockKind

// canonExpr renders an expression as a stable key: identifiers by
// their resolved object, selector chains by object plus field names.
// Unsupported shapes return "" (untracked — no lock is ever held on
// them).
func canonExpr(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.ObjectOf(e); obj != nil {
			return fmt.Sprintf("v%p", obj)
		}
	case *ast.SelectorExpr:
		if x := canonExpr(info, e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

// recvIdent returns a method declaration's receiver identifier (nil
// for plain functions and anonymous receivers).
func recvIdent(fd *ast.FuncDecl) ast.Expr {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	return fd.Recv.List[0].Names[0]
}

// lockWalker tracks lock state through one function in source order.
// Branches whose body terminates (early-return unlock idiom) have
// their state changes discarded; other branch states are merged
// last-writer-wins — optimistic on purpose: false positives in a gate
// are worse than the occasional missed exotic path, which the dynamic
// race detector still covers.
type lockWalker struct {
	eng *lockEngine
	pkg *Package
	// fn is the function walked; nil for a package-level initializer.
	fn       *types.Func
	mp       *ModulePass
	closures []*ast.FuncLit
}

// walk checks body from state st, then every function literal found in
// it, each from an empty state.
func (w *lockWalker) walk(body ast.Node, st lockState) {
	if s, ok := body.(ast.Stmt); ok {
		w.stmt(s, st)
	} else {
		w.exprs(body, st)
	}
	for len(w.closures) > 0 {
		lit := w.closures[0]
		w.closures = w.closures[1:]
		w.stmts(lit.Body.List, make(lockState))
	}
}

func (w *lockWalker) stmts(list []ast.Stmt, st lockState) {
	for _, s := range list {
		w.stmt(s, st)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, st lockState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, st)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprs(s.Cond, st)
		then := maps.Clone(st)
		w.stmts(s.Body.List, then)
		if !terminates(s.Body.List) {
			maps.Copy(st, then)
		}
		if s.Else != nil {
			els := maps.Clone(st)
			w.stmt(s.Else, els)
			if blk, ok := s.Else.(*ast.BlockStmt); !ok || !terminates(blk.List) {
				maps.Copy(st, els)
			}
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		if s.Cond != nil {
			w.exprs(s.Cond, st)
		}
		body := maps.Clone(st)
		w.stmts(s.Body.List, body)
		if s.Post != nil {
			w.stmt(s.Post, body)
		}
		maps.Copy(st, body)
	case *ast.RangeStmt:
		w.exprs(s.X, st)
		body := maps.Clone(st)
		if s.Key != nil {
			w.exprs(s.Key, body)
		}
		if s.Value != nil {
			w.exprs(s.Value, body)
		}
		w.stmts(s.Body.List, body)
		maps.Copy(st, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Clauses are alternatives; walk each against a copy and keep
		// the pre-switch state afterwards.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				cl := maps.Clone(st)
				for _, e := range n.List {
					w.exprs(e, cl)
				}
				w.stmts(n.Body, cl)
				return false
			case *ast.CommClause:
				cl := maps.Clone(st)
				if n.Comm != nil {
					w.stmt(n.Comm, cl)
				}
				w.stmts(n.Body, cl)
				return false
			case ast.Expr:
				w.exprs(n, st) // the tag
				return false
			}
			return true
		})
	case *ast.DeferStmt:
		w.deferredCall(s.Call, st)
	case *ast.GoStmt:
		w.deferredCall(s.Call, st)
	default:
		w.exprs(s, st)
	}
}

// deferredCall handles `defer`/`go`: a deferred Unlock keeps the lock
// held for the rest of the body. Any other callee runs later under an
// unknown state, so only what is evaluated now — the callee
// expression and the arguments — is checked; a function literal is
// walked as a closure.
func (w *lockWalker) deferredCall(call *ast.CallExpr, st lockState) {
	if _, _, ok := muOp(w.pkg.Info, call); ok {
		return
	}
	w.exprs(call.Fun, st)
	for _, a := range call.Args {
		w.exprs(a, st)
	}
}

// exprs walks any non-control-flow node in source order, updating lock
// state at mutex operations and checking calls and field selections.
func (w *lockWalker) exprs(n ast.Node, st lockState) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			w.closures = append(w.closures, x)
			return false
		case *ast.CallExpr:
			w.call(x, st)
		case *ast.SelectorExpr:
			w.field(x, st)
		}
		return true
	})
}

// field checks a selector against the guarded-field contract.
func (w *lockWalker) field(sel *ast.SelectorExpr, st lockState) {
	s := w.pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	fld := s.Obj()
	owner := fieldOwner(s)
	key := typeKey(owner)
	if owner == nil || !w.eng.guarded[key+"."+fld.Name()] {
		return
	}
	name := owner.Obj().Name()
	if w.fn == nil || typeKey(recvNamed(w.fn)) != key {
		w.mp.Report(sel.Sel.Pos(), Diagnostic{
			Code: "field-foreign",
			Message: fmt.Sprintf("field %s.%s is guarded by %s.mu; access it only through %s's methods",
				name, fld.Name(), name, name),
		})
		return
	}
	if key := canonExpr(w.pkg.Info, sel.X); key == "" || st[key] == lockNone {
		w.mp.Report(sel.Sel.Pos(), Diagnostic{
			Code: "field-unlocked",
			Message: fmt.Sprintf("method %s.%s touches mu-guarded field %s, but mu is not held on this path "+
				"(lock it first, or suffix the method name with Locked if the caller must hold it)",
				name, w.fn.Name(), fld.Name()),
		})
	}
}

// muOp matches `<expr>.mu.Lock()` and friends, returning the canonical
// owner key and the method name.
func muOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel || inner.Sel.Name != "mu" || !isMutex(info.TypeOf(sel.X)) {
		return "", "", false
	}
	return canonExpr(info, inner.X), sel.Sel.Name, true
}

func (w *lockWalker) call(call *ast.CallExpr, st lockState) {
	info := w.pkg.Info
	if key, op, ok := muOp(info, call); ok {
		if key == "" {
			return
		}
		switch op {
		case "Lock":
			if st[key] != lockNone {
				w.mp.Report(call.Pos(), Diagnostic{
					Code:    "double-lock",
					Message: "mu is already held on this path; locking it again deadlocks",
				})
			}
			st[key] = lockEx
		case "RLock":
			if st[key] == lockEx {
				w.mp.Report(call.Pos(), Diagnostic{
					Code:    "double-lock",
					Message: "mu is write-held on this path; RLock would deadlock",
				})
			}
			st[key] = lockRead
		case "Unlock", "RUnlock":
			st[key] = lockNone
		}
		return
	}

	callee := calleeFunc(info, call)
	if callee == nil {
		return
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return
	}
	callee = w.eng.cg.Canon(callee)
	owner := recvNamed(callee)
	if !w.eng.owned[typeKey(owner)] {
		return
	}
	key := canonExpr(info, sel.X)

	if strings.HasSuffix(callee.Name(), "Locked") {
		if key == "" || st[key] == lockNone {
			w.mp.Report(call.Pos(), Diagnostic{
				Code: "locked-no-lock",
				Message: fmt.Sprintf(
					"call to %s requires %s.mu to be held, but no lock is held on this path "+
						"(lock it first, or suffix the calling method with Locked)",
					callee.FullName(), owner.Obj().Name()),
			})
		}
		return
	}

	if acq := w.eng.acquire(callee); acq.kind != lockNone && key != "" && st[key] != lockNone {
		if st[key] == lockEx || acq.kind == lockEx {
			w.mp.Report(call.Pos(), Diagnostic{
				Code: "double-lock",
				Message: fmt.Sprintf(
					"%s.mu is already held on this path; %s acquires it again and would deadlock",
					owner.Obj().Name(), callee.FullName()),
				Related: acq.chain,
			})
		}
	}
}

// acquire summarizes whether fn locks its own receiver's mu, directly
// or through calls on the same receiver. Cycles and unknown bodies are
// treated as non-acquiring (conservative toward silence).
func (e *lockEngine) acquire(fn *types.Func) *acqInfo {
	if a, ok := e.acq[fn]; ok {
		return a
	}
	a := &acqInfo{}
	node, ok := e.cg.Nodes[fn]
	if !ok || e.walking[fn] || node.Decl.Body == nil {
		return a
	}
	recv := recvIdent(node.Decl)
	if recv == nil {
		e.acq[fn] = a
		return a
	}
	recvKey := canonExpr(node.Pkg.Info, recv)
	e.walking[fn] = true
	defer delete(e.walking, fn)

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false // may run outside the call's dynamic extent
		case *ast.CallExpr:
			if key, op, ok := muOp(node.Pkg.Info, n); ok {
				if key == recvKey {
					switch op {
					case "Lock":
						if a.kind != lockEx {
							a.kind = lockEx
							a.chain = []Related{{
								Pos:     e.fset.Position(n.Pos()),
								Message: fmt.Sprintf("%s locks mu here", fn.FullName()),
							}}
						}
					case "RLock":
						if a.kind == lockNone {
							a.kind = lockRead
							a.chain = []Related{{
								Pos:     e.fset.Position(n.Pos()),
								Message: fmt.Sprintf("%s read-locks mu here", fn.FullName()),
							}}
						}
					}
				}
				return true
			}
			callee := calleeFunc(node.Pkg.Info, n)
			if callee == nil {
				return true
			}
			if callee = e.cg.Canon(callee); callee == fn {
				return true
			}
			sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !isSel || canonExpr(node.Pkg.Info, sel.X) != recvKey {
				return true
			}
			if sub := e.acquire(callee); sub.kind != lockNone &&
				(a.kind == lockNone || (a.kind == lockRead && sub.kind == lockEx)) {
				a.kind = sub.kind
				a.chain = append([]Related{{
					Pos:     e.fset.Position(n.Pos()),
					Message: fmt.Sprintf("via %s", callee.FullName()),
				}}, sub.chain...)
			}
		}
		return true
	})
	e.acq[fn] = a
	return a
}

// terminates reports whether a statement list always leaves the
// enclosing scope (return, branch, or panic as its last statement).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}
