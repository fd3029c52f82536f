// Module loading for picl-lint. The engine needs fully type-checked
// packages (the eidcmp rule keys off mem.EpochID's identity, lockheld
// off field and method objects), but the x/tools loader is off-limits:
// the repo is stdlib-only. The stdlib gc importer, in turn, cannot
// locate stdlib export data on modern toolchains by itself. The bridge
// is the go tool: `go list -export -deps` compiles export data for
// every dependency into the build cache and reports the file paths,
// which a lookup-based importer.ForCompiler can consume. Module
// packages themselves are parsed and type-checked from source so
// analyzers see their ASTs.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// goList runs `go list -export -deps -json` for the patterns in dir and
// decodes the package stream.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Export,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports through the export-data files that
// `go list -export` reported, with "unsafe" special-cased.
type exportImporter struct {
	base    types.ImporterFrom
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	imp := &exportImporter{exports: exports}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := imp.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp.base = importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	return imp
}

func (imp *exportImporter) Import(path string) (*types.Package, error) {
	return imp.ImportFrom(path, "", 0)
}

func (imp *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return imp.base.ImportFrom(path, dir, mode)
}

// Loader type-checks packages of one module for analysis.
type Loader struct {
	fset *token.FileSet
	imp  *exportImporter
	root string
}

// NewLoader builds a loader for the module containing dir, with export
// data prepared for every package matched by patterns plus all their
// dependencies ("./..." when none given).
func NewLoader(dir string, patterns ...string) (*Loader, []listPkg, error) {
	root, err := moduleRoot(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(root, patterns)
	if err != nil {
		return nil, nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	return &Loader{fset: fset, imp: newExportImporter(fset, exports), root: root}, pkgs, nil
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		d = parent
	}
}

// checkFiles parses and type-checks one package's source files.
func (ld *Loader) checkFiles(path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: ld.imp}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: ld.fset, Files: files, Types: tpkg, Info: info}, nil
}

// CheckDir type-checks a single directory of Go files as one package
// under the given import path. Golden tests use it to feed testdata
// sources (ignored by go list) through the real analyzers; asPath lets a
// test place the package inside a scope-restricted tree such as
// picl/internal/sim.
func (ld *Loader) CheckDir(dir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return ld.checkFiles(asPath, dir, names)
}

// LoadModule type-checks every non-test package of the module rooted at
// or above dir that matches the patterns ("./..." by default). Test
// files are outside the gate: they may use math/rand and wall clocks
// freely, and go vet already covers their printf-class mistakes.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	ld, listed, err := NewLoader(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly || len(p.GoFiles) == 0 {
			continue
		}
		pkg, err := ld.checkFiles(p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
