package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The seeded-defect tests are the analyzers' own regression battery:
// each one copies a clean fixture package, re-introduces a
// representative historical defect textually, and asserts the pass
// fires. A refactor of the call-graph or effect machinery that silently
// stops the passes from seeing through one call level fails here, not
// in production review.

// seedFixture copies the fixture package at src into a fresh directory
// under testdata/seeded (inside the module, so cfm/internal/... imports
// still resolve), applying old→new to every file and insisting the
// mutation actually landed somewhere.
func seedFixture(t *testing.T, src, old, new string) string {
	t.Helper()
	if err := os.MkdirAll(filepath.Join("testdata", "seeded"), 0o755); err != nil {
		t.Fatal(err)
	}
	dir, err := os.MkdirTemp(filepath.Join("testdata", "seeded"), "pkg")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	mutated := false
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		if strings.Contains(text, old) {
			text = strings.ReplaceAll(text, old, new)
			mutated = true
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !mutated {
		t.Fatalf("mutation %q not found in %s: the fixture drifted out from under the seeded-defect test", old, src)
	}
	return dir
}

// runPassOn loads dir and runs the named pass, returning the rendered
// diagnostics.
func runPassOn(t *testing.T, passName, dir string) []string {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	target, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading seeded package: %v", err)
	}
	var pass *Pass
	for _, p := range Passes() {
		if p.Name == passName {
			pass = p
			break
		}
	}
	if pass == nil {
		t.Fatalf("unknown pass %q", passName)
	}
	r := NewReporter(loader.Fset)
	pass.Run(target, r)
	var out []string
	for _, d := range r.Diagnostics() {
		out = append(out, d.String())
	}
	return out
}

// TestSeededDroppedEncode drops one SaveState encode call from the
// clean statecover fixture. Both halves of the pass must notice: the
// coverage half sees a field restored but never encoded, and the
// symmetry half sees the traces diverge where the load still expects
// the word.
func TestSeededDroppedEncode(t *testing.T) {
	dir := seedFixture(t, filepath.Join("testdata", "src", "statecover", "neg"),
		"\tenc.I64(m.bias)\n", "")
	diags := runPassOn(t, "statecover", dir)
	if len(diags) == 0 {
		t.Fatal("statecover stayed silent on a snapshot that drops a persistent field")
	}
	var sawCoverage, sawSymmetry bool
	for _, d := range diags {
		if strings.Contains(d, "bias") {
			sawCoverage = true
		}
		if strings.Contains(d, "diverge") {
			sawSymmetry = true
		}
	}
	if !sawCoverage {
		t.Errorf("no finding names the dropped field bias:\n%s", strings.Join(diags, "\n"))
	}
	if !sawSymmetry {
		t.Errorf("no finding reports the save/load trace divergence:\n%s", strings.Join(diags, "\n"))
	}
}

// TestSeededDroppedPermutedLoad drops the last processor-order load
// loop of the clean fixture's set-major Stater. The pass must model the
// permuted codec rather than bail on it: the save trace then carries a
// loop the load trace never reads.
func TestSeededDroppedPermutedLoad(t *testing.T) {
	dir := seedFixture(t, filepath.Join("testdata", "src", "statecover", "neg"),
		"\tfor i := range m.state {\n\t\tm.state[m.at(i)] = uint8(dec.Int())\n\t}\n", "")
	diags := runPassOn(t, "statecover", dir)
	var sawPermuted bool
	for _, d := range diags {
		if strings.Contains(d, "for Permuted diverge") {
			sawPermuted = true
		}
	}
	if !sawPermuted {
		t.Fatalf("statecover stayed silent on a permuted LoadState that drops a loop:\n%s", strings.Join(diags, "\n"))
	}
}

// TestSeededCrossShardWrite strips the reasoned waiver off the clean
// shardpure fixture's audit helper, turning its fold counter into an
// unexcused cross-shard write one call below TickShard. The
// interprocedural walk must attribute it to the root.
func TestSeededCrossShardWrite(t *testing.T) {
	dir := seedFixture(t, filepath.Join("testdata", "src", "shardpure", "neg"),
		"//cfm:shard-ok diagnostic counter, reset before every parallel phase and read only after the barrier\n", "")
	diags := runPassOn(t, "shardpure", dir)
	if len(diags) == 0 {
		t.Fatal("shardpure stayed silent on a cross-shard write in a TickShard callee")
	}
	var sawWrite bool
	for _, d := range diags {
		if strings.Contains(d, "cross-shard write") && strings.Contains(d, "reached from") {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Errorf("no finding attributes the callee's cross-shard write to its TickShard root:\n%s", strings.Join(diags, "\n"))
	}
}
