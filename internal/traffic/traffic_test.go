package traffic

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topo"
)

func snNet(t testing.TB, q, p int) *topo.Network {
	t.Helper()
	s, err := core.New(core.Params{Q: q, P: p})
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestUniformNeverSelf(t *testing.T) {
	u := Uniform{N: 16}
	rng := rng.New(1)
	for i := 0; i < 2000; i++ {
		src := rng.Intn(16)
		d := u.Dest(rng, src)
		if d == src || d < 0 || d >= 16 {
			t.Fatalf("bad dest %d for src %d", d, src)
		}
	}
}

func TestUniformCoverage(t *testing.T) {
	u := Uniform{N: 8}
	rng := rng.New(2)
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[u.Dest(rng, 0)] = true
	}
	if len(seen) != 7 {
		t.Errorf("uniform covered %d destinations, want 7", len(seen))
	}
}

func TestShuffleDeterministicPermutationLike(t *testing.T) {
	s := Shuffle{N: 16}
	rng := rng.New(1)
	// For power-of-two N, bit rotation is a bijection on IDs (except for
	// fixed points remapped by the self-avoidance rule).
	counts := map[int]int{}
	for src := 0; src < 16; src++ {
		d := s.Dest(rng, src)
		if d < 0 || d >= 16 || d == src {
			t.Fatalf("bad dest %d for src %d", d, src)
		}
		counts[d]++
	}
	// Rotation of 0 is 0 -> remapped; allow at most 2 collisions.
	over := 0
	for _, c := range counts {
		if c > 1 {
			over++
		}
	}
	if over > 2 {
		t.Errorf("shuffle far from a permutation: %v", counts)
	}
}

func TestShuffleKnownValues(t *testing.T) {
	s := Shuffle{N: 16}
	rng := rng.New(1)
	// 4-bit rotate left: 0b0011 -> 0b0110.
	if got := s.Dest(rng, 3); got != 6 {
		t.Errorf("SHF(3) = %d, want 6", got)
	}
	// 0b1000 -> 0b0001.
	if got := s.Dest(rng, 8); got != 1 {
		t.Errorf("SHF(8) = %d, want 1", got)
	}
}

func TestReversalKnownValues(t *testing.T) {
	r := Reversal{N: 16}
	rng := rng.New(1)
	// 4-bit reverse: 0b0001 -> 0b1000.
	if got := r.Dest(rng, 1); got != 8 {
		t.Errorf("REV(1) = %d, want 8", got)
	}
	// 0b0011 -> 0b1100.
	if got := r.Dest(rng, 3); got != 12 {
		t.Errorf("REV(3) = %d, want 12", got)
	}
}

func TestReversalInvolutionQuick(t *testing.T) {
	r := Reversal{N: 256}
	rng := rng.New(1)
	prop := func(raw uint8) bool {
		src := int(raw)
		d := r.Dest(rng, src)
		if d == src {
			return true // self-avoidance kicked in
		}
		back := r.Dest(rng, d)
		// Reversal is an involution unless remapped for self-avoidance.
		return back == src || d == (src+1)%256
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAdversarialPermutation(t *testing.T) {
	net := snNet(t, 5, 4)
	adv := NewAdversarial(net, 1)
	// ADV1 partners form an injective mapping over routers.
	seen := map[int]bool{}
	for r := 0; r < net.Nr; r++ {
		p := adv.partner[r]
		if p != r && seen[p] {
			t.Fatalf("partner %d reused", p)
		}
		seen[p] = true
	}
	// Node-level: same slot at partner router.
	rng := rng.New(1)
	for src := 0; src < net.N(); src++ {
		d := adv.Dest(rng, src)
		if d == src || d < 0 || d >= net.N() {
			t.Fatalf("bad dest %d for %d", d, src)
		}
	}
}

// TestAdversarialMatchesAllPairs pins the batched ADV1 construction against
// the matrix it replaced: the same greedy farthest-partner matching run over
// one scalar BFS per router must give the same partner of every
// router — on sn_subgr_200, t2d54 (many distance ties) and a Dragonfly, on a
// 98-router SN that spans two 64-source batches, and on that SN with most
// links removed (unreachable routers are nobody's partner).
func TestAdversarialMatchesAllPairs(t *testing.T) {
	df, err := topo.Dragonfly(5, 2, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	sn98 := snNet(t, 7, 4)
	damaged := sn98.RemoveRandomLinks(0.8, 3)
	if damaged.Diameter() != -1 {
		t.Fatal("fixture: 80% link removal left the SN connected")
	}
	for _, net := range []*topo.Network{snNet(t, 5, 4), topo.Torus2D(6, 3, 3), df, sn98, damaged} {
		want := make([]int, net.Nr)
		taken := make([]bool, net.Nr)
		dist := make([]int32, net.Nr)
		for r := range want {
			net.BFS(r, dist, nil)
			best, bestD := -1, int32(-1)
			for o := 0; o < net.Nr; o++ {
				if d := dist[o]; o != r && !taken[o] && d > bestD {
					best, bestD = o, d
				}
			}
			if best < 0 {
				best = r
			}
			taken[best] = true
			want[r] = best
		}
		if got := NewAdversarial(net, 1).partner; !slices.Equal(got, want) {
			t.Errorf("%s (%d routers): partners %v, want %v", net.Name, net.Nr, got, want)
		}
	}
}

func TestAdversarialVariant2CrossesDie(t *testing.T) {
	net := snNet(t, 5, 4)
	adv := NewAdversarial(net, 2)
	for r := 0; r < net.Nr; r++ {
		if adv.partner[r] != (r+net.Nr/2)%net.Nr {
			t.Fatalf("ADV2 partner of %d = %d", r, adv.partner[r])
		}
	}
	if adv.Name() != "ADV2" {
		t.Error("wrong name")
	}
}

func TestAsymmetricHalves(t *testing.T) {
	a := Asymmetric{N: 100}
	rng := rng.New(3)
	low, high := 0, 0
	for i := 0; i < 2000; i++ {
		src := rng.Intn(100)
		d := a.Dest(rng, src)
		if d < 0 || d >= 100 || d == src {
			t.Fatalf("bad dest %d for src %d", d, src)
		}
		if d >= 50 {
			high++
		} else {
			low++
		}
	}
	// Roughly half the destinations land in each half.
	frac := float64(high) / float64(high+low)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("high-half fraction %.2f, want ~0.5", frac)
	}
}

func TestSyntheticRate(t *testing.T) {
	src := &Synthetic{N: 100, Rate: 0.12, PacketFlits: 6, Pattern: Uniform{N: 100}}
	rng := rng.New(4)
	packets := 0
	cycles := int64(5000)
	for tt := int64(0); tt < cycles; tt++ {
		src.Generate(tt, rng, func(s, d, f, c int) {
			packets++
			if f != 6 {
				t.Fatalf("packet size %d", f)
			}
		})
	}
	got := float64(packets*6) / (100 * float64(cycles))
	if got < 0.10 || got > 0.14 {
		t.Errorf("offered load %.3f, want ~0.12", got)
	}
}

func TestPatternByName(t *testing.T) {
	net := snNet(t, 3, 3)
	for _, name := range []string{"RND", "SHF", "REV", "ADV1", "ADV2", "ASYM"} {
		p := PatternByName(name, net)
		if p == nil {
			t.Fatalf("PatternByName(%s) = nil", name)
		}
		if p.Name() != name {
			t.Errorf("pattern %s reports name %s", name, p.Name())
		}
	}
	if PatternByName("XXX", net) != nil {
		t.Error("unknown name should return nil")
	}
}

func TestAllPatternsInRangeQuick(t *testing.T) {
	net := snNet(t, 3, 3)
	n := net.N()
	pats := []Pattern{
		Uniform{N: n}, Shuffle{N: n}, Reversal{N: n},
		NewAdversarial(net, 1), NewAdversarial(net, 2), Asymmetric{N: n},
	}
	rng := rng.New(5)
	prop := func(raw uint16) bool {
		src := int(raw) % n
		for _, p := range pats {
			d := p.Dest(rng, src)
			if d < 0 || d >= n || d == src {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
