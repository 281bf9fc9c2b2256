package serve

import (
	"math"
	"math/rand"
	"testing"

	"repro/slimnoc"
	"repro/slimnoc/store"
)

// cacheIdentity is an episode's identity as a JSON value — the form the
// cache keyed through store.KeyOf before episodeKeyer rendered it by hand.
type cacheIdentity struct {
	Spec      slimnoc.RunSpec    `json:"spec"`
	Transfers []slimnoc.Transfer `json:"transfers"`
}

// TestEpisodeKeyerMatchesKeyOf pins the hand-rendered cache key byte for
// byte against store.KeyOf over the cacheIdentity struct, the definition it
// replaces on the request path: every cache file written before the keyer
// existed (and the serve golden transcript's store) keeps hitting.
func TestEpisodeKeyerMatchesKeyOf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, raw := range []slimnoc.RunSpec{
		{Network: slimnoc.NetworkSpec{Preset: "t2d54"}},
		{Network: slimnoc.NetworkSpec{Preset: "sn_gr_1296"}, Buffering: slimnoc.BufferingSpec{Scheme: "cbr"}},
		{Network: slimnoc.NetworkSpec{Topology: "sn", Q: 5, Conc: 4, Layout: "subgr"}, Routing: slimnoc.RoutingSpec{VCs: 4}},
	} {
		spec, err := slimnoc.EstimatorSpec(raw)
		if err != nil {
			t.Fatal(err)
		}
		k, err := newEpisodeKeyer(spec)
		if err != nil {
			t.Fatal(err)
		}
		batches := [][]slimnoc.Transfer{
			nil,
			{},
			{{Src: 0, Dst: 0, Flits: 1}},
			{{Src: -3, Dst: math.MaxInt32, Flits: math.MaxInt64}},
		}
		for i := 0; i < 200; i++ {
			b := make([]slimnoc.Transfer, 1+rng.Intn(40))
			for j := range b {
				b[j] = slimnoc.Transfer{Src: rng.Intn(1296), Dst: rng.Intn(1296), Flits: 1 + rng.Intn(64)}
			}
			batches = append(batches, b)
		}
		var c *Cache
		for i, b := range batches {
			want, err := store.KeyOf(cacheSalt, cacheIdentity{Spec: spec, Transfers: b})
			if err != nil {
				t.Fatal(err)
			}
			// The keyer reuses its buffer across calls, so a stale tail from
			// a longer batch would show up here.
			if got := k.key(b); got != want {
				t.Fatalf("batch %d (%d transfers): keyer %s, store.KeyOf %s", i, len(b), got, want)
			}
			if got, err := c.Key(spec, b); err != nil || got != want {
				t.Fatalf("batch %d: Cache.Key = %s, %v; store.KeyOf %s", i, got, err, want)
			}
		}
	}
}
