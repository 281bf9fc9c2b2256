package slimnoc

import (
	"flag"
	"path/filepath"
	"reflect"
	"testing"
)

func parseFlags(t *testing.T, args ...string) *SpecFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := NewSpecFlags().BindCommon(fs).BindNetwork(fs).BindRun(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestSpecFlagsDefaults(t *testing.T) {
	sf := parseFlags(t)
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultSpec()
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("no flags should yield the defaults:\n got  %+v\n want %+v", spec, want)
	}
}

func TestSpecFlagsOverrides(t *testing.T) {
	sf := parseFlags(t,
		"-net", "fbf3", "-pattern", "adv1", "-rate", "0.24",
		"-scheme", "cbr", "-cb", "32", "-vcs", "4", "-smart",
		"-adaptive", "ugal-l", "-seed", "9")
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Network.Preset != "fbf3" {
		t.Errorf("net: %+v", spec.Network)
	}
	if spec.Traffic.Pattern != "adv1" || spec.Traffic.Rate != 0.24 {
		t.Errorf("traffic: %+v", spec.Traffic)
	}
	if spec.Buffering.Scheme != "cbr" || spec.Buffering.CBCap != 32 {
		t.Errorf("buffering: %+v", spec.Buffering)
	}
	if spec.Routing.Algorithm != "ugal-l" || spec.Routing.VCs != 4 {
		t.Errorf("routing: %+v", spec.Routing)
	}
	if !spec.SMART || spec.Sim.Seed != 9 {
		t.Errorf("smart/seed: %+v", spec)
	}
}

func TestSpecFlagsQBuildsSlimNoC(t *testing.T) {
	sf := parseFlags(t, "-q", "5", "-p", "4", "-layout", "gr")
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "gr"}
	if !reflect.DeepEqual(spec.Network, want) {
		t.Errorf("network: %+v, want %+v", spec.Network, want)
	}
}

func TestSpecFlagsFileAndOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	base := testSpec()
	base.Traffic.Rate = 0.3
	if err := saveSpec(path, base.Normalized()); err != nil {
		t.Fatal(err)
	}
	// Load the file and override just the rate.
	sf := parseFlags(t, "-spec", path, "-rate", "0.05")
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if spec.Network.Preset != "t2d54" {
		t.Errorf("file network lost: %+v", spec.Network)
	}
	if spec.Traffic.Rate != 0.05 {
		t.Errorf("rate override lost: %+v", spec.Traffic)
	}
	if spec.Sim.MeasureCycles != 1500 {
		t.Errorf("file cycles lost: %+v", spec.Sim)
	}
}

func TestSpecFlagsSaveSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "saved.json")
	sf := parseFlags(t, "-net", "t2d54", "-rate", "0.1", "-save-spec", path)
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := loadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, spec) {
		t.Errorf("saved spec differs:\n got  %+v\n want %+v", loaded, spec)
	}
}

func TestSpecFlagsFullMode(t *testing.T) {
	sf := parseFlags(t, "-full")
	spec, err := sf.Spec(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	full := FullSim()
	if spec.Sim.MeasureCycles != full.MeasureCycles || spec.Sim.WarmupCycles != full.WarmupCycles {
		t.Errorf("full mode cycles: %+v", spec.Sim)
	}
}

func TestSpecFlagsRejectBadValues(t *testing.T) {
	sf := parseFlags(t, "-net", "nope")
	if _, err := sf.Spec(DefaultSpec()); err == nil {
		t.Error("unknown preset accepted")
	}
	sf = parseFlags(t, "-scheme", "bottomless")
	if _, err := sf.Spec(DefaultSpec()); err == nil {
		t.Error("unknown scheme accepted")
	}
}
