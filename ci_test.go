// A guard on the CI workflow's focused steps: `go test -run <re>`
// passes silently when <re> matches nothing, so renaming a test would
// quietly empty the step that ran it.
package cfm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests requires every `go test -run <re>` line
// of .github/workflows/ci.yml to select at least one Test or Fuzz
// function in each package the line names.
func TestCIRunPatternsSelectTests(t *testing.T) {
	raw, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run[= ](?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		m := runFlag.FindStringSubmatch(line)
		if !strings.HasPrefix(line, "go test") || m == nil {
			continue
		}
		pattern := m[1] + m[2] + m[3]
		if pattern == "none" { // benchmarks only: selecting no test is the point
			continue
		}
		for _, pkg := range strings.Fields(line)[2:] {
			if !strings.HasPrefix(pkg, ".") {
				continue
			}
			checked++
			if !selectsAny(t, pattern, testFuncs(t, pkg)) {
				t.Errorf("ci.yml:%d: -run %q selects no Test or Fuzz function in %s", i+1, pattern, pkg)
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run line in ci.yml")
	}
}

// selectsAny reports whether pattern selects one of the top-level names
// as go test does: the pattern is an alternation of slash-separated
// paths (split at '|' and '/' outside brackets and parentheses), and a
// top-level name is selected when it matches the first element of any
// alternative.
func selectsAny(t *testing.T, pattern string, names []string) bool {
	var firsts []string
	brackets, parens, start, first := 0, 0, 0, true
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case c == '[':
			brackets++
		case c == ']' && brackets > 0:
			brackets--
		case c == '(' && brackets == 0:
			parens++
		case c == ')' && brackets == 0:
			parens--
		case (c == '/' || c == '|') && brackets == 0 && parens == 0:
			if first {
				firsts = append(firsts, pattern[start:i])
			}
			first, start = c == '|', i+1
		}
	}
	if first {
		firsts = append(firsts, pattern[start:])
	}
	for _, f := range firsts {
		re, err := regexp.Compile(f)
		if err != nil {
			t.Fatalf("-run %q: %v", pattern, err)
		}
		for _, name := range names {
			if re.MatchString(name) {
				return true
			}
		}
	}
	return false
}

// testFuncs lists the Test and Fuzz functions declared in the _test.go
// files of package directory pkg, or of every package under it for a
// ./... pattern.
func testFuncs(t *testing.T, pkg string) []string {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Clean(dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != dir && !recursive {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
