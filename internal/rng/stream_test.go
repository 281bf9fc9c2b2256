package rng

import (
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
	"unsafe"
)

// pair is a Stream and the math/rand generator it must shadow.
type pair struct {
	t   testing.TB
	s   *Stream
	ref *rand.Rand
	ops int
}

func newPair(t testing.TB, seed int64) *pair {
	return &pair{t: t, s: New(seed), ref: rand.New(rand.NewSource(seed))}
}

func (p *pair) seed(seed int64) {
	p.s.Seed(seed)
	p.ref.Seed(seed)
}

func (p *pair) float64() {
	p.ops++
	if got, want := p.s.Float64(), p.ref.Float64(); got != want {
		p.t.Fatalf("op %d: Float64 = %v, math/rand %v", p.ops, got, want)
	}
}

func (p *pair) int63() {
	p.ops++
	if got, want := p.s.Int63(), p.ref.Int63(); got != want {
		p.t.Fatalf("op %d: Int63 = %d, math/rand %d", p.ops, got, want)
	}
}

func (p *pair) uint64() {
	p.ops++
	if got, want := p.s.Uint64(), p.ref.Uint64(); got != want {
		p.t.Fatalf("op %d: Uint64 = %d, math/rand %d", p.ops, got, want)
	}
}

func (p *pair) intn(n int) {
	p.ops++
	if got, want := p.s.Intn(n), p.ref.Intn(n); got != want {
		p.t.Fatalf("op %d: Intn(%d) = %d, math/rand %d", p.ops, n, got, want)
	}
}

// firstBelow checks the bulk scan against the per-draw loop it stands for.
// Only the index is compared here; a scan that consumed the wrong number of
// words shows as a mismatch on the next op.
func (p *pair) firstBelow(prob float64, n int) {
	p.ops++
	want := n
	for i := 0; i < n; i++ {
		if p.ref.Float64() < prob {
			want = i
			break
		}
	}
	if got := p.s.FirstBelow(prob, n); got != want {
		p.t.Fatalf("op %d: FirstBelow(%v, %d) = %d, math/rand loop %d", p.ops, prob, n, got, want)
	}
}

// intnArgs covers every branch of math/rand's Intn: 1, powers of two and
// non-powers through Int31n, and both kinds above 2^31 through Int63n.
// 1<<30+1 and 1<<62+1 reject about every second draw.
var intnArgs = []int{1, 2, 3, 6, 54, 64, 200, 1000, 1 << 16, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 3 << 40, 1 << 62, 1<<62 + 1, math.MaxInt64}

var scriptProbs = []float64{0, 0.008 / 6, 0.4 / 6, 0.5, 1}

// runScript drives both generators through one op per script byte.
func runScript(t testing.TB, seed int64, script []byte) {
	p := newPair(t, seed)
	for i, b := range script {
		arg := int(b >> 3)
		switch b & 7 {
		case 0:
			p.float64()
		case 1:
			p.int63()
		case 2:
			p.intn(intnArgs[arg%len(intnArgs)])
		case 3:
			p.uint64()
		case 4:
			p.firstBelow(scriptProbs[arg%len(scriptProbs)], 1+arg*29)
		case 5:
			// Reseed; an even arg reseeds twice in a row, so the first seed
			// is recorded and never drawn from.
			if arg%2 == 0 {
				p.seed(seed ^ int64(i))
			}
			p.seed(seed + int64(arg)*0x9e3779b9 - int64(i))
		case 6:
			// Cross a ring generation.
			for k := 0; k < ringLen; k++ {
				p.uint64()
			}
		case 7:
			p.intn(1 + arg*arg*977)
		}
	}
	p.uint64()
}

func TestStreamMatchesMathRand(t *testing.T) {
	ops := 1_000_000
	if testing.Short() {
		ops = 200_000
	}
	seeds := []int64{0, 1, -1, -987654321, 1<<31 + 5, 1<<40 + 12345, math.MaxInt64, math.MinInt64}
	for _, seed := range seeds {
		// The op mix comes from its own generator so that the two under
		// test see nothing but the ops.
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		p := newPair(t, seed)
		for p.ops < ops/len(seeds)+1 {
			switch k := pick.Intn(100); {
			case k < 40:
				p.float64()
			case k < 75:
				p.intn(intnArgs[pick.Intn(len(intnArgs))])
			case k < 90:
				p.int63()
			case k < 98:
				p.firstBelow(scriptProbs[pick.Intn(len(scriptProbs))], 1+pick.Intn(900))
			case k < 99:
				p.seed(pick.Int63() - 1<<62)
			default:
				// A seed that is recorded and then replaced before any draw.
				p.seed(pick.Int63())
				p.seed(seed)
			}
		}
	}
}

func FuzzStreamMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{})
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(-7), []byte{5, 5, 13, 0, 6, 6, 36, 0, 0xfa, 0x72, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		runScript(t, seed, script)
	})
}

// refFloat64 is math/rand v1's Float64 derivation, word for word, on top of
// a Stream's Int63.
func refFloat64(s *Stream) float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

func TestFirstBelowExact(t *testing.T) {
	below := func(v uint64, prob float64) bool { return float64(int64(v))/(1<<63) < prob }
	if below(redrawFrom, 1) || !below(redrawFrom-1, 1) {
		t.Fatalf("redrawFrom = %d is not the first Int63 whose Float64 rounds to 1", uint64(redrawFrom))
	}
	probs := []float64{0, 5e-324, 0.008 / 6, 0.4 / 6, 0.5, 1 - 1.0/(1<<53), 1, 1.5, math.NaN(), -0.25, math.Inf(1)}
	for _, prob := range probs {
		thr := threshold(prob)
		if thr > redrawFrom {
			t.Fatalf("threshold(%v) = %d reaches into the redraw band", prob, thr)
		}
		if thr > 0 && !below(thr-1, prob) {
			t.Errorf("threshold(%v) = %d: the value just under it is not below prob", prob, thr)
		}
		if thr < redrawFrom && below(thr, prob) {
			t.Errorf("threshold(%v) = %d: the bound itself is still below prob", prob, thr)
		}
		p := newPair(t, 42)
		for _, n := range []int{1, 2, 7, 200, 606, 607, 608, 5000, 0, 3} {
			for rep := 0; rep < 5; rep++ {
				p.firstBelow(prob, n)
				p.uint64() // stream position
			}
		}
	}

	// Words in the redraw band cannot be provoked through math/rand in any
	// reasonable time, so plant them: the reference is the math/rand
	// derivation running on a copy of the same planted state.
	for _, prob := range []float64{0, 0.4 / 6, 0.5, 1} {
		s := New(9)
		s.Uint64()
		for _, at := range []int{1, 2, 3, 100, 333, 334, 512, 605, 606} {
			s.ring[at] = redrawFrom + uint64(at)%512 + uint64(at&1)<<63
		}
		s.ring[4] = redrawFrom - 1
		ref := *s
		for _, n := range []int{1, 1, 1, 3, 50, 300, 700, 2, 607} {
			want := n
			for i := 0; i < n; i++ {
				if refFloat64(&ref) < prob {
					want = i
					break
				}
			}
			if got := s.FirstBelow(prob, n); got != want {
				t.Fatalf("planted ring, prob %v: FirstBelow(%d) = %d, reference %d", prob, n, got, want)
			}
			if s.pos != ref.pos || s.ring != ref.ring {
				t.Fatalf("planted ring, prob %v: FirstBelow(%d) left the stream at %d, reference at %d", prob, n, s.pos, ref.pos)
			}
		}
	}
	s := New(9)
	s.Uint64()
	s.ring[1], s.ring[2], s.ring[606] = redrawFrom, 1<<64-1, redrawFrom+7
	ref := *s
	for i := 0; i < 2*ringLen; i++ {
		if got, want := s.Float64(), refFloat64(&ref); got != want || s.pos != ref.pos {
			t.Fatalf("planted ring: Float64 #%d = %v at %d, reference %v at %d", i, got, s.pos, want, ref.pos)
		}
	}
}

var (
	sinkStream *Stream
	sinkWord   uint64
)

// TestStreamAllocs pins the stream's footprint. rand.New(rand.NewSource(seed))
// took 5424 bytes: one object in the 5376-byte size class for the source plus
// the 48-byte Rand. A new Stream is one object that fits the same class and
// borrows its seeding source from the pool; reseeding a stream costs nothing.
func TestStreamAllocs(t *testing.T) {
	if size := unsafe.Sizeof(Stream{}); size > 5376 {
		t.Errorf("Stream is %d bytes, beyond the 5376-byte size class", size)
	}
	// The pool is emptied by the collector; keep that out of the measurement.
	// (AllocsPerRun pins the run to one P, so its warm-up call leaves a source
	// where every later call finds it.)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		sinkStream = New(seed)
		sinkWord = sinkStream.Uint64()
	}); n != 1 {
		t.Errorf("New + first draw allocates %v times, want 1 (the Stream; the seeding source is pooled)", n)
	}
	s := New(1)
	if n := testing.AllocsPerRun(100, func() {
		seed++
		s.Seed(seed)
		sinkWord = s.Uint64()
	}); n != 0 {
		t.Errorf("Seed + first draw allocates %v times, want 0", n)
	}
	// Bounded draws, each range reduction below and above 2^31, for powers
	// of two and the rejection loop.
	if n := testing.AllocsPerRun(100, func() {
		sinkWord = uint64(s.Intn(1000) + s.Intn(1<<20) + s.Intn(3<<40) + s.Intn(1<<40))
	}); n != 0 {
		t.Errorf("Intn allocates %v times, want 0", n)
	}
}
