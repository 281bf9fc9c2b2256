package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
)

// digestsPath binds every golden fixture to the engine generation that
// produced it: EngineVersion -> fixture file name -> SHA-256 of its bytes.
// A fixture may only change together with an EngineVersion bump, because
// result stores key on the version and would otherwise serve results the
// engine no longer computes.
const digestsPath = "testdata/golden_digests.json"

// goldenFixtures maps each fixture this package pins to the flag that
// regenerates it.
var goldenFixtures = map[string]string{
	goldenPath:     "-update-golden",
	goldenGridPath: "-update-golden-grid",
	goldenIdlePath: "-update-golden-idle",
	workloadsPath:  "-update-workloads",
}

func readDigests(t *testing.T) map[string]map[string]string {
	t.Helper()
	data, err := os.ReadFile(digestsPath)
	if err != nil {
		t.Fatal(err)
	}
	var d map[string]map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("%s: %v", digestsPath, err)
	}
	return d
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDigests fails when a fixture's bytes moved without an
// EngineVersion bump: every fixture must match the digest recorded for it
// under the current version.
func TestGoldenDigests(t *testing.T) {
	pinned := readDigests(t)[sim.EngineVersion]
	paths := make([]string, 0, len(goldenFixtures))
	for path := range goldenFixtures {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		name := filepath.Base(path)
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s has no digest under %s; regenerate it with %s", name, sim.EngineVersion, goldenFixtures[path])
			continue
		}
		if got := fileDigest(t, path); got != want {
			t.Errorf("%s changed under %s (sha256 %s, pinned %s): a golden may only move with an EngineVersion bump", name, sim.EngineVersion, got, want)
		}
	}
}

// writeGolden regenerates a fixture for the current EngineVersion and records
// its digest. It refuses to overwrite a fixture the current version already
// pins: moving a golden needs a new EngineVersion first.
func writeGolden(t *testing.T, path string, v any) {
	t.Helper()
	digests := readDigests(t)
	name := filepath.Base(path)
	if _, ok := digests[sim.EngineVersion][name]; ok {
		t.Fatalf("refusing to rewrite %s: %s already pins its digest; bump sim.EngineVersion to move a golden", name, sim.EngineVersion)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if digests[sim.EngineVersion] == nil {
		digests[sim.EngineVersion] = make(map[string]string)
	}
	digests[sim.EngineVersion][name] = fileDigest(t, path)
	out, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(digestsPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s and its %s digest", path, sim.EngineVersion)
}
