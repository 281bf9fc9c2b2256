package slimnoc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/slimnoc/store"
)

// TestPointKeyNormalizes pins the content-address equivalences: defaulted
// fields spelled out or omitted, name casing and aliases, and the Name label
// must not change a point's key, while any execution-relevant field must.
func TestPointKeyNormalizes(t *testing.T) {
	terse := RunSpec{
		Network: NetworkSpec{Preset: "T2D54"},
		Traffic: TrafficSpec{Rate: 0.05},
		Sim:     SimSpec{WarmupCycles: 100, MeasureCycles: 300, DrainCycles: 600, Seed: 7},
	}
	spelled := terse
	spelled.Name = "some-label"
	spelled.Network.Preset = "t2d54"
	spelled.Routing = RoutingSpec{Algorithm: "AUTO", VCs: 2}
	spelled.Buffering = BufferingSpec{Scheme: "EB"}
	spelled.Traffic.Pattern = "RND"
	spelled.Traffic.PacketFlits = 6

	k1, err := PointKey(terse)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := PointKey(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent specs hash differently: %s vs %s", k1, k2)
	}

	changed := terse
	changed.Sim.Seed = 8
	k3, err := PointKey(changed)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Error("changing the seed did not change the key")
	}

	// A preset and its explicit parameters name the same network: the key
	// hashes the expanded form (like the campaign's network cache does).
	preset := RunSpec{
		Network: NetworkSpec{Preset: "t2d54"},
		Traffic: TrafficSpec{Pattern: "rnd", Rate: 0.05},
		Sim:     SimSpec{Seed: 7},
	}
	explicit := preset
	expanded, err := ExpandNetwork(preset.Network)
	if err != nil {
		t.Fatal(err)
	}
	explicit.Network = expanded
	kp, err := PointKey(preset)
	if err != nil {
		t.Fatal(err)
	}
	ke, err := PointKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if kp != ke {
		t.Errorf("preset and explicit equivalents hash differently: %s vs %s", kp, ke)
	}

	// The historical scheme spellings name the same scheme as the canonical
	// ones, so they must share its key.
	for alias, scheme := range map[string]string{"eblarge": "eb-large", "EBVAR": "eb-var"} {
		a, c := terse, terse
		a.Buffering.Scheme, c.Buffering.Scheme = alias, scheme
		ka, err := PointKey(a)
		if err != nil {
			t.Fatal(err)
		}
		kc, err := PointKey(c)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kc {
			t.Errorf("scheme %q and %q hash differently: %s vs %s", alias, scheme, ka, kc)
		}
	}

	// An unresolvable network cannot be content-addressed.
	bad := terse
	bad.Network = NetworkSpec{Preset: "no_such_net"}
	if _, err := PointKey(bad); err == nil {
		t.Error("PointKey accepted an unresolvable preset")
	}
}

// pointKeyGoldenCase is one pinned (spec, canonical bytes, key) triple.
type pointKeyGoldenCase struct {
	Name      string          `json:"name"`
	Spec      json.RawMessage `json:"spec"`
	Canonical string          `json:"canonical"`
	Key       store.Key       `json:"key"`
}

// goldenSpecs are the fixture inputs; regenerate testdata/pointkey_golden.json
// with UPDATE_POINTKEY_GOLDEN=1 after an INTENTIONAL spec-schema or engine
// version change.
func goldenSpecs() []struct {
	name string
	spec RunSpec
} {
	return []struct {
		name string
		spec RunSpec
	}{
		{"default", DefaultSpec()},
		{"fig12-point", RunSpec{
			Network:   NetworkSpec{Preset: "sn_subgr_200"},
			Traffic:   TrafficSpec{Pattern: "adv1", Rate: 0.24},
			SMART:     true,
			Sim:       SimSpec{WarmupCycles: 5000, MeasureCycles: 20000, DrainCycles: 30000, Seed: 42},
			Buffering: BufferingSpec{Scheme: "cbr", CBCap: 40},
		}},
		{"explicit-topology", RunSpec{
			Network: NetworkSpec{Topology: "torus", X: 14, Y: 7, Conc: 6},
			Routing: RoutingSpec{Algorithm: "minimal", VCs: 4},
			Traffic: TrafficSpec{Pattern: "shf", Rate: 0.06},
			Sim:     SimSpec{Seed: 1},
		}},
		{"trace-point", RunSpec{
			Network: NetworkSpec{Preset: "fbf3"},
			Traffic: TrafficSpec{Pattern: "trace", Trace: "fft"},
			SMART:   true,
			Sim:     SimSpec{WarmupCycles: 1000, MeasureCycles: 3000, DrainCycles: 4000, Seed: 9},
		}},
	}
}

// pointCanonical reproduces PointKey's hash input — the normalized,
// label-free, network-expanded spec — as canonical bytes for the fixture.
func pointCanonical(spec RunSpec) ([]byte, error) {
	n := spec.Normalized()
	n.Name = ""
	expanded, err := ExpandNetwork(n.Network)
	if err != nil {
		return nil, err
	}
	n.Network = expanded
	return store.Canonical(n)
}

// TestPointKeyGolden pins the canonical-JSON bytes and hashes of
// representative specs. It fails when a RunSpec schema change (renamed or
// added field, changed JSON tag) or an engine-version bump silently changes
// point keys — either invalidating every existing store or, worse, aliasing
// old results onto new semantics. If the change is intentional, regenerate
// the fixture (UPDATE_POINTKEY_GOLDEN=1 go test ./slimnoc -run
// TestPointKeyGolden) and say so in the commit.
func TestPointKeyGolden(t *testing.T) {
	path := filepath.Join("testdata", "pointkey_golden.json")
	if os.Getenv("UPDATE_POINTKEY_GOLDEN") != "" {
		var cases []pointKeyGoldenCase
		for _, g := range goldenSpecs() {
			canon, err := pointCanonical(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			key, err := PointKey(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			specJSON, err := json.Marshal(g.spec)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, pointKeyGoldenCase{
				Name: g.name, Spec: specJSON, Canonical: string(canon), Key: key,
			})
		}
		data, err := json.MarshalIndent(cases, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cases []pointKeyGoldenCase
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(goldenSpecs()) {
		t.Fatalf("fixture has %d cases, test defines %d — regenerate it", len(cases), len(goldenSpecs()))
	}
	for i, g := range goldenSpecs() {
		c := cases[i]
		if c.Name != g.name {
			t.Fatalf("fixture case %d is %q, want %q — regenerate it", i, c.Name, g.name)
		}
		canon, err := pointCanonical(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != c.Canonical {
			t.Errorf("%s: canonical bytes changed\n got: %s\nwant: %s\n(spec schema drift — stored results would be orphaned)",
				g.name, canon, c.Canonical)
		}
		key, err := PointKey(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		if key != c.Key {
			t.Errorf("%s: key changed: got %s, want %s", g.name, key, c.Key)
		}
	}
}

// marshalResults serializes a result set the way identity comparisons see
// it: specs, results, metrics and engine telemetry, errors as text.
func marshalResults(t *testing.T, rs []PointResult) []byte {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignStoreResumeIdentity is the tentpole contract: interrupt a
// campaign mid-sweep, rerun it against the same store, and the final result
// set is byte-identical to an uninterrupted cold run — with only the
// missing points simulated. A third, fully warm run simulates nothing and
// still matches.
func TestCampaignStoreResumeIdentity(t *testing.T) {
	sweep := testSweep()
	points, err := sweep.Points()
	if err != nil {
		t.Fatal(err)
	}

	// Cold reference: no store involved.
	cold, err := NewCampaign(WithJobs(2)).Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	coldBytes := marshalResults(t, cold)

	// Interrupted run: cancel after the first completion; some points land
	// in the store, the rest never start or abort mid-run (and are not
	// stored).
	storePath := filepath.Join(t.TempDir(), "results", "store.jsonl")
	st, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	partial, err := NewCampaign(
		WithJobs(2),
		WithStore(st),
		WithOnPoint(func(PointResult) { once.Do(cancel) }),
	).Run(ctx, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v, want context.Canceled", err)
	}
	stored := 0
	for _, p := range partial {
		if p.Err == nil {
			stored++
		}
	}
	if stored == 0 || stored == len(points) {
		t.Fatalf("interruption stored %d of %d points; the test needs a partial store", stored, len(points))
	}
	if st.Len() != stored {
		t.Errorf("store holds %d results, %d points completed", st.Len(), stored)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a "new process": reopen the store and rerun the same sweep.
	st2, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewCampaign(WithJobs(2), WithStore(st2)).Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	cached, fresh := 0, 0
	for i, p := range resumed {
		if p.Err != nil {
			t.Fatalf("resumed point %d: %v", i, p.Err)
		}
		if p.Cached {
			cached++
		} else {
			fresh++
		}
	}
	if cached != stored {
		t.Errorf("resume served %d cached points, want %d (everything the interrupted run completed)", cached, stored)
	}
	if fresh != len(points)-stored {
		t.Errorf("resume simulated %d points, want exactly the %d missing ones", fresh, len(points)-stored)
	}
	if got := marshalResults(t, resumed); !bytes.Equal(got, coldBytes) {
		t.Error("resumed result set is not byte-identical to the cold run")
	}
	st2.Close()

	// Warm run: everything cached, still byte-identical, store unchanged.
	st3, err := store.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	before := st3.Len()
	warm, err := NewCampaign(WithJobs(2), WithStore(st3)).Run(t.Context(), points)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range warm {
		if p.Err != nil || !p.Cached {
			t.Fatalf("warm point %d: cached=%v err=%v", i, p.Cached, p.Err)
		}
	}
	if got := marshalResults(t, warm); !bytes.Equal(got, coldBytes) {
		t.Error("warm result set is not byte-identical to the cold run")
	}
	if st3.Len() != before {
		t.Errorf("warm run grew the store from %d to %d records", before, st3.Len())
	}
}

// TestCampaignStoreCrossSweepReuse checks content addressing ignores sweep
// labels: a second sweep containing the same physical points under a
// different name is served entirely from the first sweep's store.
func TestCampaignStoreCrossSweepReuse(t *testing.T) {
	first := testSweep()
	second := testSweep()
	second.Name = "renamed-grid"

	p1, err := first.Points()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := second.Points()
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := NewCampaign(WithJobs(2), WithStore(st)).Run(t.Context(), p1); err != nil {
		t.Fatal(err)
	}
	results, err := NewCampaign(WithJobs(2), WithStore(st)).Run(t.Context(), p2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range results {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
		if !p.Cached {
			t.Errorf("point %d (%s) re-simulated despite an identical stored point", i, p.Spec.Name)
		}
		if p.Spec.Name != p2[i].Name {
			t.Errorf("point %d label %q, want the requesting sweep's %q", i, p.Spec.Name, p2[i].Name)
		}
		if p.Result.Spec.Name != p2[i].Name {
			t.Errorf("point %d result label %q, want %q", i, p.Result.Spec.Name, p2[i].Name)
		}
	}
}
