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
	"encoding/binary"
	"errors"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"cfm"
)

// The shared -update-golden flag (declared in metrics_golden_test.go)
// also regenerates these files.

// goldenSnapshots are the committed snapshots, each a table entry
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

func TestCheckpointGoldenBytes(t *testing.T) {
	for _, g := range goldenSnapshots {
		t.Run(g.scenario, func(t *testing.T) {
			got := checkpointAt(t, scenarioNamed(t, g.scenario), cfm.NewClock, g.cut)
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
			sc := scenarioNamed(t, g.scenario)
			raw, err := os.ReadFile(g.path)
			if err != nil {
				t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
			}
			want, _ := oracleOf(t, sc)
			if d := mismatch(want, resume(t, sc, cfm.NewClock, raw, g.cut)); d != "" {
				t.Fatalf("run resumed from %s diverged from the oracle: %s", g.path, d)
			}
		})
	}
}

// TestCheckpointGoldenVersionBump simulates a snapshot written by a
// future build: same payload, bumped version field, valid checksum. The
// restore must fail with ErrUnsupportedVersion and name both versions.
func TestCheckpointGoldenVersionBump(t *testing.T) {
	g := goldenSnapshots[0]
	sc := scenarioNamed(t, g.scenario)
	raw, err := os.ReadFile(g.path)
	if err != nil {
		t.Fatalf("missing golden snapshot (regenerate with -update-golden): %v", err)
	}
	mut := append([]byte(nil), raw...)
	const magicLen = len("CFMCKPT\n")
	mut[magicLen] = byte(cfm.CheckpointVersion + 1) // low byte of the LE u32
	reseal(mut)
	_, err = cfm.Restore(bytes.NewReader(mut), func() cfm.Engine {
		eng := cfm.NewClock()
		sc.build(eng)
		return eng
	})
	if !errors.Is(err, cfm.ErrUnsupportedVersion) {
		t.Fatalf("future-version snapshot: got %v, want ErrUnsupportedVersion", err)
	}
}

// reseal rewrites the FNV-1a trailer of a snapshot whose body was
// edited, so the edit reaches the decoders instead of the checksum.
func reseal(snap []byte) {
	h := fnv.New64a()
	h.Write(snap[:len(snap)-8])
	binary.LittleEndian.PutUint64(snap[len(snap)-8:], h.Sum64())
}

// FuzzCheckpointCorrupt feeds corrupted snapshots to the real codecs of
// the table: the input picks an entry and a cut, then flips a bit of,
// overwrites or truncates the checkpoint body, and reseals the trailer
// so the mutation reaches LoadState instead of failing the checksum.
// Restore must return an error or succeed — never panic.
func FuzzCheckpointCorrupt(f *testing.F) {
	table := scenarios()
	for i := 0; i < len(table)-len(randomScenarios()); i++ {
		f.Add(uint8(i), uint16(37*i), uint8(i), uint32(101*i), byte(i))
	}
	f.Fuzz(func(t *testing.T, entry uint8, cut uint16, op uint8, pos uint32, val byte) {
		sc := table[int(entry)%len(table)]
		_, total := oracleOf(t, sc)
		snap := checkpointAt(t, sc, cfm.NewClock, 1+int64(cut)%(total-1))
		const header = len("CFMCKPT\n") + 4 // magic and version
		at := header + int(pos%uint32(len(snap)-8-header))
		switch op % 3 {
		case 0:
			snap[at] ^= 1 << (val % 8)
		case 1:
			snap[at] = val
		case 2:
			snap = append(snap[:at], snap[len(snap)-8:]...)
		}
		reseal(snap)
		cfm.Restore(bytes.NewReader(snap), func() cfm.Engine {
			eng := cfm.NewClock()
			sc.build(eng)
			return eng
		})
	})
}
