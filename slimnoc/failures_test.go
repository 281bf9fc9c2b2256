package slimnoc

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/routing"
)

// damagedSpec is a quick point on a damaged t2d54.
func damagedSpec(frac float64, seed int64) RunSpec {
	spec := testSpec()
	spec.Network.FailFrac, spec.Network.FailSeed = frac, seed
	return spec
}

func TestFailFracValidated(t *testing.T) {
	for _, frac := range []float64{-0.1, math.NaN(), 1, 1.5} {
		spec := damagedSpec(frac, 1)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), "fail_frac") {
			t.Errorf("fail_frac %g: Validate = %v, want a fail_frac error", frac, err)
		}
		if _, _, err := BuildNetwork(spec.Network); err == nil {
			t.Errorf("fail_frac %g: BuildNetwork accepted it", frac)
		}
	}
	if err := damagedSpec(0.2, 1).Validate(); err != nil {
		t.Errorf("fail_frac 0.2: %v", err)
	}
}

// TestFailuresInPointKey pins that the failure fields address distinct
// points, and that an intact spec's key does not see them: a seed without
// failures is inert and normalizes away.
func TestFailuresInPointKey(t *testing.T) {
	key := func(s RunSpec) string {
		t.Helper()
		k, err := PointKey(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(k)
	}
	intact := key(testSpec())
	a, b := key(damagedSpec(0.1, 1)), key(damagedSpec(0.1, 2))
	if a == b {
		t.Error("two fail seeds share one PointKey")
	}
	if a == intact || key(damagedSpec(0.2, 1)) == a {
		t.Error("fail fractions share one PointKey")
	}
	if key(damagedSpec(0, 5)) != intact {
		t.Error("a fail seed without failures changed the PointKey")
	}
}

func TestDamagedNetworkRuns(t *testing.T) {
	spec := damagedSpec(0.1, 3)
	net, kind, err := BuildNetwork(spec.Network)
	if err != nil {
		t.Fatal(err)
	}
	intact, _, err := BuildNetwork(testSpec().Network)
	if err != nil {
		t.Fatal(err)
	}
	if kind.Class != routing.ClassGeneric || net.Name != "t2d54_fail10%" {
		t.Errorf("damaged network: class %v, name %q", kind.Class, net.Name)
	}
	links := func(n *Network) (l int) {
		for _, adj := range n.Adj {
			l += len(adj)
		}
		return l / 2
	}
	if links(net) >= links(intact) {
		t.Errorf("damaged network keeps %d of %d links", links(net), links(intact))
	}
	// A damaged grid routes generic-minimal, under "auto" as under
	// "minimal": both compile the same table.
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Routing.Algorithm = "minimal"
	res2, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics != res2.Metrics || res.Metrics.Delivered == 0 {
		t.Errorf("auto %+v vs minimal %+v", res.Metrics, res2.Metrics)
	}
}

// TestDisconnectedNetworkFails: every routing algorithm, static or
// adaptive, refuses a network in pieces with the same named error instead of
// panicking mid-run.
func TestDisconnectedNetworkFails(t *testing.T) {
	for _, alg := range routings.names {
		spec := damagedSpec(0.9, 1)
		spec.Routing.Algorithm = alg
		_, err := Run(context.Background(), spec)
		if err == nil || !strings.Contains(err.Error(), "network is disconnected") {
			t.Errorf("%s: Run = %v, want the disconnected-network error", alg, err)
		}
	}
}
