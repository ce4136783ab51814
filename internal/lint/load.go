package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a package's sources (plus
// its in-package test files when requested) or an external _test
// package.
type Package struct {
	// Path is the full import path; RelPath is module-relative ("" for
	// the module root package). External test units carry a "_test"
	// suffix on Path but share the base package's RelPath so analyzer
	// path filters treat them as part of the package.
	Path    string
	RelPath string
	Dir     string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks the module's packages using only the
// standard library: go/parser for syntax, go/types for checking, and
// go/importer's source importer for out-of-module (stdlib) imports.
// In-module imports are resolved recursively from source so the loader
// works without compiled export data.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string
	// ModPath is the module path declared in go.mod.
	ModPath string
	// IncludeTests adds _test.go files to each package's unit and
	// loads external test packages as separate units.
	IncludeTests bool

	fset    *token.FileSet
	src     types.Importer
	cache   map[string]*types.Package // import cache: base sources only
	loading map[string]bool           // cycle detection
}

// NewLoader reads go.mod under root and returns a loader.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s", filepath.Join(root, "go.mod"))
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:         root,
		ModPath:      modPath,
		IncludeTests: true,
		fset:         fset,
		src:          importer.ForCompiler(fset, "source", nil),
		cache:        make(map[string]*types.Package),
		loading:      make(map[string]bool),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import implements types.Importer: module-local paths are
// type-checked from source (base files only, cached); everything else
// is delegated to the stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.relPath(path); ok {
		return l.importModule(path, rel)
	}
	return l.src.Import(path)
}

// relPath maps a full import path to its module-relative form.
func (l *Loader) relPath(path string) (string, bool) {
	if path == l.ModPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return rest, true
	}
	return "", false
}

func (l *Loader) importModule(path, rel string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	// Imported packages are checked from their base sources only:
	// test files never participate in the import graph.
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	files, _, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source in %s", dir)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// parseDir parses a directory's sources, split into base files and
// external-test (package foo_test) files. In-package _test.go files
// are included in base only when includeTests is set.
func (l *Loader) parseDir(dir string, includeTests bool) (base, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var basePkg string
	for _, n := range names {
		isTest := strings.HasSuffix(n, "_test.go")
		if isTest && !includeTests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: %w", err)
		}
		name := f.Name.Name
		switch {
		case isTest && strings.HasSuffix(name, "_test"):
			xtest = append(xtest, f)
		case basePkg == "" || name == basePkg:
			basePkg = name
			base = append(base, f)
		default:
			return nil, nil, fmt.Errorf("lint: %s: found packages %s and %s in one directory", dir, basePkg, name)
		}
	}
	return base, xtest, nil
}

// check type-checks one unit. Type errors are collected and returned
// as a single error so the driver can report every problem at once.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 10 {
				errs = append(errs, err.Error())
			}
		},
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-checking %s:\n\t%s", path, strings.Join(errs, "\n\t"))
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// LoadDir loads the analysis units of one directory: the package
// (with in-package tests when IncludeTests is set) and, when present,
// the external test package. asPath is the unit's import path; rel is
// the module-relative path used for analyzer filtering.
func (l *Loader) LoadDir(dir, asPath, rel string) ([]*Package, error) {
	base, xtest, err := l.parseDir(dir, l.IncludeTests)
	if err != nil {
		return nil, err
	}
	var units []*Package
	if len(base) > 0 {
		pkg, info, err := l.check(asPath, base)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: asPath, RelPath: rel, Dir: dir,
			Fset: l.fset, Files: base, Types: pkg, Info: info,
		})
	}
	if len(xtest) > 0 {
		pkg, info, err := l.check(asPath+"_test", xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, &Package{
			Path: asPath + "_test", RelPath: rel, Dir: dir,
			Fset: l.fset, Files: xtest, Types: pkg, Info: info,
		})
	}
	return units, nil
}

// Packages loads the analysis units matching the given patterns. A
// pattern is a module-relative (or full) import path, optionally
// ending in "/..." to include the subtree; "./..." , "..." and the
// empty pattern select the whole module. Matching no package is an
// error, as is any parse or type-check failure.
func (l *Loader) Packages(patterns ...string) ([]*Package, error) {
	dirs, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"..."}
	}
	var units []*Package
	matchedAny := make([]bool, len(patterns))
	for _, rel := range dirs {
		matched := false
		for i, pat := range patterns {
			if matchPattern(pat, rel, l.ModPath) {
				matchedAny[i] = true
				matched = true
			}
		}
		if !matched {
			continue
		}
		asPath := l.ModPath
		if rel != "" {
			asPath += "/" + rel
		}
		u, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), asPath, rel)
		if err != nil {
			return nil, err
		}
		units = append(units, u...)
	}
	for i, pat := range patterns {
		if !matchedAny[i] {
			return nil, fmt.Errorf("lint: pattern %q matched no packages", pat)
		}
	}
	return units, nil
}

// moduleDirs walks the module tree and returns every directory (as a
// module-relative slash path) containing Go sources, skipping vendor,
// testdata, hidden directories, and nested modules (any subdirectory
// with its own go.mod), as `go list ./...` does.
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p == l.Root {
				return nil
			}
			if name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") {
			rel, err := filepath.Rel(l.Root, filepath.Dir(p))
			if err != nil {
				return err
			}
			if rel == "." {
				rel = ""
			}
			rel = filepath.ToSlash(rel)
			if len(dirs) == 0 || dirs[len(dirs)-1] != rel {
				dirs = append(dirs, rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// matchPattern reports whether a module-relative package path matches
// one CLI pattern.
func matchPattern(pat, rel, modPath string) bool {
	pat = strings.TrimPrefix(pat, "./")
	pat = strings.TrimPrefix(pat, modPath+"/")
	if pat == modPath {
		pat = ""
	}
	if pat == "..." || pat == "" {
		return true
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return rel == sub || strings.HasPrefix(rel, sub+"/")
	}
	return rel == pat
}
