// Golden-snapshot tests: checkpoints of fixed scenarios at fixed cuts
// are committed under testdata/, and every build must (a) reproduce them
// byte for byte — the format is part of the repo's compatibility
// surface — and (b) restore them into a working engine whose completed
// run matches the uninterrupted oracle. Regenerate with
//
//	go test -run TestCheckpointGolden -update-golden .
//
// after an INTENTIONAL format change, which must also bump
// cfm.CheckpointVersion so old snapshots fail with a clear error instead
// of misparsing (the version-bump path is pinned below).
package cfm_test

import (
	"bytes"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"cfm"
)

// The shared -update-golden flag (declared in metrics_equiv_test.go)
// also regenerates these files.

// goldenSnapshots are the committed snapshots, each a resumeCases entry
// checkpointed on the serial clock at a fixed cut: the Fig. 3.13
// conventional baseline, and the Fig. 3.14 partial machine under a §7.2
// Homes placement with the registry and flight recorder attached. The
// second pins Partial's snapshot order (processor order, whatever the
// in-memory layout) and the span IDs its recorder holds.
var goldenSnapshots = []struct {
	scenario, path string
	cut            int64
}{
	{"ConventionalFig313", "testdata/checkpoint_golden.cfm", 100},
	{"PartialHomes", "testdata/checkpoint_golden_partial.cfm", 100},
}

// resumeCaseNamed returns the resumeCases entry with the given name.
func resumeCaseNamed(t *testing.T, name string) resumeCase {
	t.Helper()
	for _, rc := range resumeCases() {
		if rc.name == name {
			return rc
		}
	}
	t.Fatalf("scenario %s missing from resumeCases", name)
	return resumeCase{}
}

func TestCheckpointGoldenBytes(t *testing.T) {
	for _, g := range goldenSnapshots {
		t.Run(g.scenario, func(t *testing.T) {
			rc := resumeCaseNamed(t, g.scenario)
			got := checkpointAt(t, rc, func() cfm.Engine { return cfm.NewClock() }, g.cut)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(g.path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", g.path, len(got))
				return
			}
			want, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes drifted from %s (%d vs %d bytes): the format changed — bump cfm.CheckpointVersion and regenerate with -update-golden",
					g.path, len(got), len(want))
			}
		})
	}
}

func TestCheckpointGoldenRestores(t *testing.T) {
	for _, g := range goldenSnapshots {
		t.Run(g.scenario, func(t *testing.T) {
			rc := resumeCaseNamed(t, g.scenario)
			raw, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
			}
			want, _ := resumeOracle(rc)
			restoreAndFinish(t, rc, func() cfm.Engine { return cfm.NewClock() }, raw, g.cut, want)
		})
	}
}

// TestCheckpointGoldenVersionBump simulates a snapshot written by a
// future build: same payload, bumped version field, valid checksum. The
// restore must fail with ErrUnsupportedVersion and name both versions.
func TestCheckpointGoldenVersionBump(t *testing.T) {
	g := goldenSnapshots[0]
	rc := resumeCaseNamed(t, g.scenario)
	raw, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
	}
	mut := append([]byte(nil), raw...)
	const magicLen = len("CFMCKPT\n")
	mut[magicLen] = byte(cfm.CheckpointVersion + 1) // low byte of the LE u32
	h := fnv.New64a()
	h.Write(mut[:len(mut)-8])
	sum := h.Sum64()
	for i := 0; i < 8; i++ {
		mut[len(mut)-8+i] = byte(sum >> (8 * i))
	}
	_, err = cfm.Restore(bytes.NewReader(mut), func() cfm.Engine {
		eng := cfm.NewClock()
		rc.build(eng)
		return eng
	})
	if !errors.Is(err, cfm.ErrUnsupportedVersion) {
		t.Fatalf("future-version snapshot: got %v, want ErrUnsupportedVersion", err)
	}
}
