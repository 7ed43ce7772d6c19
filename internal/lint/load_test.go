package lint

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The loader is the foundation every pass (and the interprocedural call
// graph) stands on, so its failure modes must be loud and specific:
// each error path here is one a user actually hits — running cfmlint
// outside a module, a mangled go.mod, a package that does not build —
// and the test pins the message that tells them what to fix.

// writeTree materializes a file tree under a fresh temp dir.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		full := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestNewLoaderOutsideModule(t *testing.T) {
	dir := t.TempDir()
	_, err := NewLoader(dir)
	if err == nil || !strings.Contains(err.Error(), "no go.mod found above") {
		t.Fatalf("NewLoader outside any module: err = %v, want a no-go.mod message", err)
	}
}

func TestNewLoaderModuleLineMissing(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "go 1.22\n", // a go.mod with no module line
	})
	_, err := NewLoader(root)
	if err == nil || !strings.Contains(err.Error(), "has no module line") {
		t.Fatalf("NewLoader on a module-less go.mod: err = %v, want a no-module-line message", err)
	}
}

func TestLoadDirImportCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":  "module cyc\n",
		"a/a.go":  "package a\n\nimport \"cyc/b\"\n\nvar X = b.Y\n",
		"b/b.go":  "package b\n\nimport \"cyc/a\"\n\nvar Y = a.X\n",
		"ok/o.go": "package ok\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(filepath.Join(root, "a"))
	if err == nil || !strings.Contains(err.Error(), "import cycle through") {
		t.Fatalf("LoadDir on a cyclic package: err = %v, want an import-cycle message", err)
	}
	// The cycle guard must not wedge the loader: an unrelated package in
	// the same module still loads.
	if _, err := l.LoadDir(filepath.Join(root, "ok")); err != nil {
		t.Fatalf("loading a healthy package after a cycle failure: %v", err)
	}
}

func TestLoadDirEmptyPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":         "module empty\n",
		"only/x_test.go": "package only\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(filepath.Join(root, "only"))
	if err == nil || !strings.Contains(err.Error(), "no buildable Go files") {
		t.Fatalf("LoadDir on a test-only dir: err = %v, want a no-buildable-files message", err)
	}
}

func TestLoadDirParseError(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":      "module broken\n",
		"bad/bad.go":  "package bad\n\nfunc f( {\n",
		"bad/good.go": "package bad\n\nfunc g() {}\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.LoadDir(filepath.Join(root, "bad")); err == nil {
		t.Fatal("LoadDir swallowed a syntax error")
	}
}

func TestLoadDirTypeErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":    "module typo\n",
		"p/p.go":    "package p\n\nfunc f() int { return \"not an int\" }\n",
		"many/m.go": "package many\n\nvar a int = \"x\"\nvar b int = \"y\"\nvar c int = \"z\"\nvar d int = \"w\"\nvar e int = \"v\"\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(filepath.Join(root, "p"))
	if err == nil || !strings.Contains(err.Error(), "type errors in") {
		t.Fatalf("LoadDir on an ill-typed package: err = %v, want a type-errors message", err)
	}
	// Long error lists are truncated with a count, not dumped wholesale.
	_, err = l.LoadDir(filepath.Join(root, "many"))
	if err == nil || !strings.Contains(err.Error(), "and 2 more") {
		t.Fatalf("LoadDir error list not truncated: %v", err)
	}
}

func TestExpandSkipsNonPackages(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":              "module walk\n",
		"a/a.go":              "package a\n",
		"a/testdata/t.go":     "package t\n",
		"a/_skip/s.go":        "package s\n",
		"a/.hidden/h.go":      "package h\n",
		"b/vendor/v.go":       "package v\n",
		"b/b.go":              "package b\n",
		"docsonly/readme.txt": "not a package\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.Expand([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	var rels []string
	for _, d := range dirs {
		rel, _ := filepath.Rel(root, d)
		rels = append(rels, filepath.ToSlash(rel))
	}
	want := []string{"a", "b"}
	if len(rels) != len(want) || rels[0] != want[0] || rels[1] != want[1] {
		t.Fatalf("Expand = %v, want %v", rels, want)
	}
	// A bare directory pattern with no Go files is a user error, not a
	// silent no-op.
	if _, err := l.Expand([]string{filepath.Join(root, "docsonly")}); err == nil {
		t.Fatal("Expand accepted a directory with no Go files")
	}
}

func TestImportPathFor(t *testing.T) {
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	if got := loader.importPathFor(loader.Root); got != loader.ModPath {
		t.Errorf("importPathFor(root) = %q, want %q", got, loader.ModPath)
	}
	sub := filepath.Join(loader.Root, "internal", "lint")
	if got, want := loader.importPathFor(sub), loader.ModPath+"/internal/lint"; got != want {
		t.Errorf("importPathFor(sub) = %q, want %q", got, want)
	}
	if got := loader.importPathFor(string(filepath.Separator)); !strings.HasPrefix(got, "lintsrc/") {
		t.Errorf("importPathFor(outside) = %q, want a lintsrc/ synthetic path", got)
	}
}

// TestLoadDirBuildConstraints loads a package that declares one
// identifier twice, once per platform: only the files the compiler would
// build for this host may reach the type checker.
func TestLoadDirBuildConstraints(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                        "module plat\n",
		"p/p.go":                        "package p\n\nvar Y = X\n",
		"p/x_" + runtime.GOARCH + ".go": "package p\n\nconst X = 1\n",
		"p/x_other.go":                  "//go:build ignore\n\npackage p\n\nconst X = 2\n",
	})
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := l.LoadDir(filepath.Join(root, "p"))
	if err != nil {
		t.Fatalf("LoadDir on a platform-split package: %v", err)
	}
	if len(tg.Files) != 2 {
		t.Fatalf("loaded %d files, want p.go and the %s file", len(tg.Files), runtime.GOARCH)
	}
}
