package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module identifies the Go module under analysis.
type Module struct {
	// Root is the absolute directory containing go.mod.
	Root string
	// Path is the module path declared in go.mod.
	Path string
}

// Package is one loaded, type-checked package (non-test files only).
type Package struct {
	Dir        string
	ImportPath string
	Name       string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks module packages on demand, resolving
// module-internal imports from source and everything else (the standard
// library) through go/importer's source importer. Test files are not
// loaded: the invariants vklint enforces are about shipped code, and
// tests legitimately compare keys byte-for-byte.
type Loader struct {
	Fset *token.FileSet

	mod     Module
	std     types.Importer
	pkgs    map[string]*Package // keyed by directory
	loading map[string]bool     // cycle detection, keyed by directory
}

// NewLoader locates the module containing dir (walking up to go.mod) and
// returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	mod, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from $GOROOT/src
	// with the default build context; cgo-tagged variants (net, os/user)
	// cannot be type-checked without running cgo, so force the pure-Go
	// paths. This only affects type checking, never the built binary.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		mod:     mod,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Module returns the module the loader is rooted in.
func (l *Loader) Module() Module { return l.mod }

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (Module, error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return Module{Root: d, Path: strings.TrimSpace(rest)}, nil
				}
			}
			return Module{}, fmt.Errorf("lint: %s has no module directive", filepath.Join(d, "go.mod"))
		}
		if filepath.Dir(d) == d {
			return Module{}, fmt.Errorf("lint: no go.mod found above %s", dir)
		}
	}
}

// Match expands package patterns into package directories. A pattern is
// either a directory or a directory followed by "/...", which walks
// recursively; like the go tool, the walk skips testdata, vendor, and
// hidden or underscore-prefixed directories. Relative patterns resolve
// against the current working directory.
func (l *Loader) Match(patterns ...string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		root, err := filepath.Abs(pat)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !recursive {
			if hasGoFiles(root) {
				add(root)
			}
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

func isSourceFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// Load parses and type-checks the packages in the given directories.
func (l *Loader) Load(dirs ...string) ([]*Package, error) {
	out := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// loadDir loads one directory's package, caching the result.
func (l *Loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		// Only the files the go command builds for this platform: file
		// name suffixes (_amd64.go) and //go:build lines select
		// between per-architecture definitions.
		ok, err := build.Default.MatchFile(abs, e.Name())
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !ok {
			continue
		}
		path := filepath.Join(abs, e.Name())
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go source files in %s", abs)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: (*moduleImporter)(l),
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	importPath := l.importPathFor(abs)
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		shown := typeErrs
		if len(shown) > 5 {
			shown = shown[:5]
		}
		return nil, fmt.Errorf("lint: type-checking %s failed:\n  %s", abs, strings.Join(shown, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", abs, err)
	}
	pkg := &Package{
		Dir:        abs,
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Fset:       l.Fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[abs] = pkg
	return pkg, nil
}

// importPathFor maps a directory inside the module to its import path.
// Directories outside the module root (never hit in practice) fall back
// to the directory path itself, which keeps diagnostics meaningful.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.mod.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(dir)
	}
	if rel == "." {
		return l.mod.Path
	}
	return l.mod.Path + "/" + filepath.ToSlash(rel)
}

// moduleImporter resolves imports during type checking: module-internal
// paths load from source through the loader (sharing its cache), and all
// other paths — the standard library — go through the source importer.
type moduleImporter Loader

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(m)
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod.Path), "/")
		pkg, err := l.loadDir(filepath.Join(l.mod.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
