package traffic

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The reference composition: the per-node loop Synthetic.Generate ran before
// Process.Next existed — Begin once, then for every node one Inject decision
// followed, when it holds, by the destination and length draws — written out
// on math/rand, the generator the golden fixtures were recorded with.

type refProcess struct {
	begin  func(r *rand.Rand)
	inject func(r *rand.Rand, node int, prob float64) bool
}

func refBernoulli(int) refProcess {
	return refProcess{
		begin:  func(*rand.Rand) {},
		inject: func(r *rand.Rand, _ int, prob float64) bool { return r.Float64() < prob },
	}
}

func refOnOff(burstLen, duty float64) func(int) refProcess {
	return func(n int) refProcess {
		exitOn, exitOff := 1/burstLen, duty/((1-duty)*burstLen)
		on := make([]bool, n)
		return refProcess{
			begin: func(*rand.Rand) {},
			inject: func(r *rand.Rand, node int, prob float64) bool {
				if on[node] {
					if r.Float64() < exitOn {
						on[node] = false
					}
				} else if r.Float64() < exitOff {
					on[node] = true
				}
				if !on[node] {
					return false
				}
				return r.Float64() < prob/duty
			},
		}
	}
}

func refModulated(factor, period float64) func(int) refProcess {
	return func(int) refProcess {
		high := false
		return refProcess{
			begin: func(r *rand.Rand) {
				if r.Float64() < 1/period {
					high = !high
				}
			},
			inject: func(r *rand.Rand, _ int, prob float64) bool {
				if high {
					prob *= factor
				} else {
					prob *= 2 - factor
				}
				return r.Float64() < prob
			},
		}
	}
}

type refDest func(r *rand.Rand, n, src int) int

func refUniform(r *rand.Rand, n, src int) int {
	if n < 2 {
		return src
	}
	for {
		if d := r.Intn(n); d != src {
			return d
		}
	}
}

func refAsymmetric(r *rand.Rand, n, src int) int {
	if n < 2 {
		return src
	}
	d := src % (n / 2)
	if r.Intn(2) == 1 {
		d += n / 2
	}
	if d == src {
		d = (d + 1) % n
	}
	return d
}

func refHotspot(frac float64, k int, base refDest) refDest {
	return func(r *rand.Rand, n, src int) int {
		if r.Float64() >= frac {
			return base(r, n, src)
		}
		d := r.Intn(k)
		if d == src {
			d = (d + 1) % n
		}
		return d
	}
}

// TestProcessNextMatchesPerNode pins the scan against the loop it replaced:
// for every process x pattern x sizer, the emission list of Synthetic.Generate
// on an rng.Stream equals the reference's on math/rand with the same seed.
func TestProcessNextMatchesPerNode(t *testing.T) {
	cycles := int64(10_000)
	if testing.Short() {
		cycles = 2_000
	}
	processes := []struct {
		name string
		ref  func(n int) refProcess
		new  func(n int) Process
	}{
		{"bernoulli", refBernoulli, func(int) Process { return nil }},
		{"burst", refOnOff(8, 0.25), func(n int) Process { return NewOnOff(n, 8, 0.25) }},
		{"mmpp", refModulated(1.8, 100), func(int) Process { return NewModulated(1.8, 100) }},
	}
	patterns := []struct {
		name string
		ref  refDest
		new  func(n int) Pattern
	}{
		{"rnd", refUniform, func(n int) Pattern { return Uniform{N: n} }},
		{"asym", refAsymmetric, func(n int) Pattern { return Asymmetric{N: n} }},
		{"hot+rnd", refHotspot(0.2, 1, refUniform), func(n int) Pattern {
			return Hotspot{Frac: 0.2, K: 1, N: n, Base: Uniform{N: n}}
		}},
	}
	sizers := []struct {
		name      string
		shortFrac float64 // 0: every packet is 6 flits
	}{{"fixed", 0}, {"bimodal", 0.5}}

	for _, n := range []int{1, 54, 200} {
		for _, proc := range processes {
			for _, pat := range patterns {
				for _, sz := range sizers {
					t.Run(fmt.Sprintf("N%d/%s/%s/%s", n, proc.name, pat.name, sz.name), func(t *testing.T) {
						const rate, seed = 0.4, 11
						src := &Synthetic{N: n, Rate: rate, PacketFlits: 6, Pattern: pat.new(n), Process: proc.new(n)}
						mean := 6.0
						if sz.shortFrac > 0 {
							src.Sizer = Bimodal{Short: 2, Long: 6, ShortFrac: sz.shortFrac}
							mean = src.Sizer.Mean()
						}
						got := record(src, seed, cycles)

						var want []injection
						r := rand.New(rand.NewSource(seed))
						ref := proc.ref(n)
						for c := int64(0); c < cycles; c++ {
							ref.begin(r)
							for node := 0; node < n; node++ {
								if !ref.inject(r, node, rate/mean) {
									continue
								}
								dst, flits := pat.ref(r, n, node), 6
								if sz.shortFrac > 0 && r.Float64() < sz.shortFrac {
									flits = 2
								}
								want = append(want, injection{c, node, dst, flits, 0})
							}
						}
						if len(want) == 0 {
							t.Fatal("the reference emitted nothing; the comparison sees nothing")
						}
						if !slices.Equal(got, want) {
							at := 0
							for at < len(got) && at < len(want) && got[at] == want[at] {
								at++
							}
							t.Fatalf("%d emissions vs %d in the reference; first difference at #%d", len(got), len(want), at)
						}
					})
				}
			}
		}
	}
}
