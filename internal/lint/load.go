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

// Target is one loaded, type-checked package: the unit a Pass runs on.
type Target struct {
	Path  string // import path under the module ("cfm/internal/core")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, with comments
	Pkg   *types.Package
	Info  *types.Info
	// HasAllocGuard reports whether any *_test.go in Dir mentions
	// testing.AllocsPerRun — the marker that the package's hot paths are
	// under a zero-alloc budget (the hotpath-alloc pass keys off it).
	HasAllocGuard bool

	// loader points back at the Loader that produced this target, so
	// interprocedural passes can resolve callees declared in other
	// module packages (callgraph.go). nil only for hand-built targets.
	loader *Loader

	// lineDirs caches each file's line → //cfm: comment index
	// (directives.go builds it lazily on first lineAnnotated query).
	lineDirs map[*ast.File]map[int][]string

	// declCache memoizes funcDecls(): interprocedural passes resolve
	// callees into this target repeatedly.
	declCache map[types.Object]*ast.FuncDecl
}

// Loader parses and type-checks packages of the enclosing module using
// only the standard library: module-internal imports resolve by mapping
// the import path onto the module root; everything else (stdlib) goes
// through go/importer's source importer, which compiles from $GOROOT/src
// and therefore needs no precompiled export data.
type Loader struct {
	Fset    *token.FileSet
	Root    string // module root: the directory holding go.mod
	ModPath string // module path from go.mod ("cfm")

	std     types.Importer
	targets map[string]*Target         // keyed by cleaned absolute dir
	byPkg   map[*types.Package]*Target // reverse index for callee lookup
	loading map[string]bool            // import-cycle guard
}

// NewLoader locates the module enclosing dir and returns a loader for
// it. One loader should be shared across a whole run: it memoizes both
// module-internal targets and stdlib type-checks.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    root,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		targets: make(map[string]*Target),
		byPkg:   make(map[*types.Package]*Target),
		loading: make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the first go.mod and returns its
// directory and module path.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer. Module-internal paths map onto the
// module tree; all other paths are delegated to the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")))
		t, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		return t.Pkg, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir (non-test files
// only). Results are memoized, so a package imported by several targets
// is checked once.
func (l *Loader) LoadDir(dir string) (*Target, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if t, ok := l.targets[abs]; ok {
		return t, nil
	}
	if l.loading[abs] {
		return nil, fmt.Errorf("lint: import cycle through %s", abs)
	}
	l.loading[abs] = true
	defer delete(l.loading, abs)

	ents, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var (
		files         []*ast.File
		hasAllocGuard bool
	)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		full := filepath.Join(abs, name)
		if strings.HasSuffix(name, "_test.go") {
			if data, err := os.ReadFile(full); err == nil && strings.Contains(string(data), "AllocsPerRun") {
				hasAllocGuard = true
			}
			continue
		}
		// Honour build constraints and _GOOS/_GOARCH suffixes, as the
		// compiler does: a package may split one function across files
		// built for different platforms.
		if ok, err := build.Default.MatchFile(abs, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", abs)
	}

	path := l.importPathFor(abs)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, 3)
		for i, te := range typeErrs {
			if i == 3 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(typeErrs)-3))
				break
			}
			msgs = append(msgs, te.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", abs, strings.Join(msgs, "\n  "))
	}
	if err != nil {
		return nil, err
	}
	t := &Target{
		Path: path, Dir: abs, Fset: l.Fset, Files: files,
		Pkg: pkg, Info: info, HasAllocGuard: hasAllocGuard,
		loader: l,
	}
	l.targets[abs] = t
	l.byPkg[pkg] = t
	return t, nil
}

// importPathFor maps an absolute directory under the module root to its
// import path. Directories outside the module get a synthetic path.
func (l *Loader) importPathFor(abs string) string {
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "lintsrc/" + filepath.ToSlash(filepath.Base(abs))
	}
	if rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

// Expand resolves command-line package patterns to package directories,
// sorted and deduplicated. Supported forms: a directory, or a directory
// with the `/...` suffix for a recursive walk. Walks skip testdata,
// hidden, and underscore-prefixed directories (matching go tooling), so
// the analyzer's own fixture packages never count against the repo.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return
		}
		abs = filepath.Clean(abs)
		if !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if rest == "" {
				rest = "."
			}
			err := filepath.WalkDir(rest, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != rest && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		if !hasGoFiles(pat) {
			return nil, fmt.Errorf("lint: no Go files in %s", pat)
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
