// Tests for the Pattern x Process x Sizer decomposition and the ReqReply
// closed loop: wrap semantics, rate preservation, per-seed determinism, and
// source-level allocation behaviour.

package traffic

import (
	"testing"

	"repro/internal/rng"
)

// TestShuffleNonPowerOfTwoWrap pins the deliberate `% N` fold: for N not a
// power of two the rotation runs on ceil(log2(N)) bits and out-of-range
// results wrap modulo N instead of being rejected.
func TestShuffleNonPowerOfTwoWrap(t *testing.T) {
	s := Shuffle{N: 10} // 4-bit IDs, values 10..15 reachable before the fold
	rng := rng.New(1)
	// src 5 = 0b0101 rotates to 0b1010 = 10, folds to 10 % 10 = 0.
	if got := s.Dest(rng, 5); got != 0 {
		t.Errorf("SHF(5) on N=10 = %d, want 0 (10 %% 10)", got)
	}
	// src 6 = 0b0110 rotates to 0b1100 = 12, folds to 2.
	if got := s.Dest(rng, 6); got != 2 {
		t.Errorf("SHF(6) on N=10 = %d, want 2 (12 %% 10)", got)
	}
	// src 1 = 0b0001 rotates to 0b0010 = 2: in range, no fold.
	if got := s.Dest(rng, 1); got != 2 {
		t.Errorf("SHF(1) on N=10 = %d, want 2", got)
	}
	// Totality: every source has an in-range, non-self destination.
	for _, n := range []int{3, 10, 12, 50, 200} {
		s := Shuffle{N: n}
		for src := 0; src < n; src++ {
			if d := s.Dest(rng, src); d < 0 || d >= n || d == src {
				t.Fatalf("N=%d: SHF(%d) = %d out of range or self", n, src, d)
			}
		}
	}
}

// TestReversalNonPowerOfTwoWrap pins the same fold for bit reversal.
func TestReversalNonPowerOfTwoWrap(t *testing.T) {
	r := Reversal{N: 10}
	rng := rng.New(1)
	// src 3 = 0b0011 reverses to 0b1100 = 12, folds to 2.
	if got := r.Dest(rng, 3); got != 2 {
		t.Errorf("REV(3) on N=10 = %d, want 2 (12 %% 10)", got)
	}
	// src 1 = 0b0001 reverses to 0b1000 = 8: in range, no fold.
	if got := r.Dest(rng, 1); got != 8 {
		t.Errorf("REV(1) on N=10 = %d, want 8", got)
	}
	for _, n := range []int{3, 10, 12, 50, 200} {
		r := Reversal{N: n}
		for src := 0; src < n; src++ {
			if d := r.Dest(rng, src); d < 0 || d >= n || d == src {
				t.Fatalf("N=%d: REV(%d) = %d out of range or self", n, src, d)
			}
		}
	}
}

// TestHotspotConcentration checks the overlay sends ~Frac of packets to the
// K hot nodes and delegates the rest to the base pattern.
func TestHotspotConcentration(t *testing.T) {
	h := Hotspot{Frac: 0.3, K: 4, N: 100, Base: Uniform{N: 100}}
	rng := rng.New(7)
	hot := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		src := 10 + rng.Intn(80) // keep src off the hot nodes
		d := h.Dest(rng, src)
		if d < 0 || d >= 100 || d == src {
			t.Fatalf("bad dest %d for src %d", d, src)
		}
		if d < 4 {
			hot++
		}
	}
	frac := float64(hot) / trials
	// Expected: 0.3 direct + ~0.7*4/100 from the uniform base.
	if frac < 0.28 || frac > 0.38 {
		t.Errorf("hot-node fraction %.3f, want ~0.33", frac)
	}
}

// injection is one recorded emit call.
type injection struct {
	t                      int64
	src, dst, flits, class int
}

// record runs the source for cycles and returns every emitted packet.
func record(src interface {
	Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int))
}, seed int64, cycles int64) []injection {
	rng := rng.New(seed)
	var out []injection
	for t := int64(0); t < cycles; t++ {
		src.Generate(t, rng, func(s, d, f, c int) {
			out = append(out, injection{t, s, d, f, c})
		})
	}
	return out
}

// newWorkloads builds one fresh instance of every new source composition.
func newWorkloads(n int) map[string]*Synthetic {
	return map[string]*Synthetic{
		"burst": {N: n, Rate: 0.06, PacketFlits: 6, Pattern: Uniform{N: n},
			Process: NewOnOff(n, 8, 0.25)},
		"mmpp": {N: n, Rate: 0.06, PacketFlits: 6, Pattern: Uniform{N: n},
			Process: NewModulated(1.8, 100)},
		"hotspot": {N: n, Rate: 0.06, PacketFlits: 6,
			Pattern: Hotspot{Frac: 0.2, K: 4, N: n, Base: Uniform{N: n}}},
		"bimodal": {N: n, Rate: 0.06, PacketFlits: 6, Pattern: Uniform{N: n},
			Sizer: Bimodal{Short: 2, Long: 6, ShortFrac: 0.5}},
	}
}

// TestWorkloadDeterminism pins the contract every source must satisfy for
// reproducible campaigns: the same seed yields the identical injection
// sequence, and a different seed a different one.
func TestWorkloadDeterminism(t *testing.T) {
	const n = 64
	for name := range newWorkloads(n) {
		t.Run(name, func(t *testing.T) {
			a := record(newWorkloads(n)[name], 42, 2000)
			b := record(newWorkloads(n)[name], 42, 2000)
			if len(a) == 0 {
				t.Fatal("source emitted nothing")
			}
			if len(a) != len(b) {
				t.Fatalf("same seed: %d vs %d injections", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("same seed diverges at injection %d: %+v vs %+v", i, a[i], b[i])
				}
			}
			c := record(newWorkloads(n)[name], 43, 2000)
			same := len(a) == len(c)
			if same {
				for i := range a {
					if a[i] != c[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Error("different seeds produced identical sequences")
			}
		})
	}
	t.Run("reqreply", func(t *testing.T) {
		mk := func() *ReqReply {
			return &ReqReply{N: n, Window: 4, ReqFlits: 2, ReplyFlits: 6, Pattern: Uniform{N: n}}
		}
		a := record(mk(), 42, 3)
		b := record(mk(), 42, 3)
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("same seed: %d vs %d injections", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same seed diverges at injection %d", i)
			}
		}
	})
}

// TestProcessRatePreserved checks the bursty and modulated processes realise
// the configured mean load: reshaping arrivals in time must not change the
// long-run rate.
func TestProcessRatePreserved(t *testing.T) {
	const n, cycles = 100, 30000
	for _, name := range []string{"burst", "mmpp"} {
		t.Run(name, func(t *testing.T) {
			src := newWorkloads(n)[name]
			flits := 0
			for _, inj := range record(src, 11, cycles) {
				flits += inj.flits
			}
			got := float64(flits) / (n * float64(cycles))
			if got < 0.05 || got > 0.07 {
				t.Errorf("realised load %.4f flits/node/cycle, want ~0.06", got)
			}
		})
	}
}

// TestOnOffBurstiness checks arrivals actually cluster: the per-node
// injection stream under OnOff must have a higher variance-to-mean ratio
// (index of dispersion over windows) than the Bernoulli baseline.
func TestOnOffBurstiness(t *testing.T) {
	const n, cycles, win = 16, 40000, 20
	dispersion := func(src *Synthetic) float64 {
		counts := make([]float64, cycles/win)
		for _, inj := range record(src, 5, cycles) {
			counts[int(inj.t)/win]++
		}
		var mean float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		var v float64
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		v /= float64(len(counts))
		return v / mean
	}
	bern := &Synthetic{N: n, Rate: 0.24, PacketFlits: 6, Pattern: Uniform{N: n}}
	burst := &Synthetic{N: n, Rate: 0.24, PacketFlits: 6, Pattern: Uniform{N: n},
		Process: NewOnOff(n, 16, 0.1)}
	db, do := dispersion(bern), dispersion(burst)
	if do < 1.5*db {
		t.Errorf("OnOff dispersion %.2f not clearly above Bernoulli %.2f", do, db)
	}
}

// TestBimodalMeanLoad checks the bimodal sizer preserves offered load by
// scaling the packet probability to the mix's mean length.
func TestBimodalMeanLoad(t *testing.T) {
	const n, cycles = 100, 20000
	src := newWorkloads(n)["bimodal"]
	flits, short, long := 0, 0, 0
	for _, inj := range record(src, 3, cycles) {
		flits += inj.flits
		switch inj.flits {
		case 2:
			short++
		case 6:
			long++
		default:
			t.Fatalf("unexpected packet size %d", inj.flits)
		}
	}
	got := float64(flits) / (n * float64(cycles))
	if got < 0.05 || got > 0.07 {
		t.Errorf("realised load %.4f, want ~0.06", got)
	}
	frac := float64(short) / float64(short+long)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("short fraction %.3f, want ~0.5", frac)
	}
}

// TestReqReplyWindow checks the closed-loop invariants: outstanding never
// exceeds the window, replies carry the data-packet size back to the
// requester, and delivered replies free window credit for new requests.
func TestReqReplyWindow(t *testing.T) {
	const n, w = 16, 3
	src := &ReqReply{N: n, Window: w, ReqFlits: 2, ReplyFlits: 6, Pattern: Uniform{N: n}}
	rng := rng.New(9)
	var pending []injection
	emit := func(s, d, f, c int) { pending = append(pending, injection{0, s, d, f, c}) }

	src.Generate(0, rng, emit)
	if len(pending) != n*w {
		t.Fatalf("cold start emitted %d requests, want %d", len(pending), n*w)
	}
	for node := 0; node < n; node++ {
		if got := src.outstanding[node]; got != w {
			t.Fatalf("node %d outstanding %d after cold start, want %d", node, got, w)
		}
	}
	// Window full: another cycle emits nothing.
	before := len(pending)
	src.Generate(1, rng, emit)
	if len(pending) != before {
		t.Fatalf("full window still emitted %d requests", len(pending)-before)
	}
	// Deliver one request: the destination must answer with a 6-flit reply.
	req := pending[0]
	pending = pending[:0]
	src.OnDelivered(10, req.src, req.dst, req.flits, req.class, emit)
	if len(pending) != 1 || pending[0].src != req.dst || pending[0].dst != req.src ||
		pending[0].flits != 6 || pending[0].class != classReply {
		t.Fatalf("request delivery emitted %+v, want 6-flit reply %d->%d", pending, req.dst, req.src)
	}
	// Deliver the reply: credit returns and the next cycle issues exactly
	// one replacement request from that node.
	reply := pending[0]
	pending = pending[:0]
	src.OnDelivered(20, reply.src, reply.dst, reply.flits, reply.class, emit)
	if got := src.outstanding[req.src]; got != w-1 {
		t.Fatalf("outstanding %d after reply, want %d", got, w-1)
	}
	src.Generate(2, rng, emit)
	if len(pending) != 1 || pending[0].src != req.src || pending[0].class != classRequest {
		t.Fatalf("refill emitted %+v, want one request from node %d", pending, req.src)
	}
}

// TestSourceGenerateZeroAllocs pins the source-level half of the
// zero-allocation contract: once their state is warm, Generate and
// OnDelivered allocate nothing (the engine-loop half lives in internal/sim's
// TestSteadyStateZeroAllocsWorkloads).
func TestSourceGenerateZeroAllocs(t *testing.T) {
	const n = 64
	rng := rng.New(1)
	nop := func(s, d, f, c int) {}
	sources := newWorkloads(n)
	// Every spatial pattern's Dest, on 200 nodes so the bit permutations
	// fold out-of-range IDs.
	net := snNet(t, 5, 4)
	for _, name := range patternNames {
		sources[name] = &Synthetic{N: net.N(), Rate: 0.06, PacketFlits: 6, Pattern: PatternByName(name, net)}
	}
	for name, src := range sources {
		src := src
		var tt int64
		for ; tt < 50; tt++ { // warm: pin default Process/Sizer, state slices
			src.Generate(tt, rng, nop)
		}
		allocs := testing.AllocsPerRun(200, func() {
			src.Generate(tt, rng, nop)
			tt++
		})
		if allocs != 0 {
			t.Errorf("%s: Generate allocates %.2f per cycle, want 0", name, allocs)
		}
	}
	rr := &ReqReply{N: n, Window: 2, ReqFlits: 2, ReplyFlits: 6, Pattern: Uniform{N: n}}
	rr.Generate(0, rng, nop)
	allocs := testing.AllocsPerRun(200, func() {
		// Steady closed loop: deliver a request and its reply, then refill.
		rr.OnDelivered(1, 0, 5, 2, classRequest, nop)
		rr.OnDelivered(2, 5, 0, 6, classReply, nop)
		rr.Generate(3, rng, nop)
	})
	if allocs != 0 {
		t.Errorf("reqreply: loop allocates %.2f per cycle, want 0", allocs)
	}
}
