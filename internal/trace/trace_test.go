package trace

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/rng"
)

func TestBenchmarksWellFormed(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 14 {
		t.Fatalf("got %d benchmarks, want 14 (Fig. 10b/18)", len(bs))
	}
	seen := map[string]bool{}
	for _, b := range bs {
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Rate <= 0 || b.Rate > 0.2 {
			t.Errorf("%s: implausible rate %v", b.Name, b.Rate)
		}
		if b.ReadFrac+b.WriteFrac >= 1 {
			t.Errorf("%s: read+write fraction %.2f leaves no coherence traffic",
				b.Name, b.ReadFrac+b.WriteFrac)
		}
		if b.Locality+b.Hotspot >= 1 {
			t.Errorf("%s: locality+hotspot %.2f >= 1", b.Name, b.Locality+b.Hotspot)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	if b := BenchmarkByName("fft"); b == nil || b.Name != "fft" {
		t.Error("fft lookup failed")
	}
	if BenchmarkByName("nope") != nil {
		t.Error("unknown benchmark should return nil")
	}
}

func TestSourceMultiprogrammed(t *testing.T) {
	s := NewSource(*BenchmarkByName("fft"), 192)
	if s.Copies != 3 || s.ThreadsPerCopy != 64 {
		t.Fatalf("192 cores should run 3x64 threads, got %dx%d", s.Copies, s.ThreadsPerCopy)
	}
	small := NewSource(*BenchmarkByName("fft"), 54)
	if small.Copies != 1 || small.ThreadsPerCopy != 54 {
		t.Fatalf("54 cores should run 1x54, got %dx%d", small.Copies, small.ThreadsPerCopy)
	}
}

// TestDestinationsStayInCopy: the multiprogrammed copies must not talk to
// each other.
func TestDestinationsStayInCopy(t *testing.T) {
	s := NewSource(*BenchmarkByName("radix"), 192)
	rng := rng.New(1)
	for trial := 0; trial < 5000; trial++ {
		src := rng.Intn(192)
		d := s.dest(rng, src)
		if d/64 != src/64 {
			t.Fatalf("dest %d leaves copy of src %d", d, src)
		}
		if d == src {
			t.Fatal("self destination")
		}
	}
}

// TestMessageMix: generated classes follow the configured fractions and the
// paper's flit sizes.
func TestMessageMix(t *testing.T) {
	s := NewSource(*BenchmarkByName("canneal"), 192)
	rng := rng.New(2)
	counts := map[int]int{}
	flits := map[int]int{}
	for cyc := int64(0); cyc < 3000; cyc++ {
		s.Generate(cyc, rng, func(src, dst, f, class int) {
			counts[class]++
			flits[class] = f
		})
	}
	total := counts[classRead] + counts[classWrite] + counts[classCoh]
	if total == 0 {
		t.Fatal("no messages generated")
	}
	readFrac := float64(counts[classRead]) / float64(total)
	if readFrac < 0.58 || readFrac > 0.78 {
		t.Errorf("read fraction %.2f, configured 0.68", readFrac)
	}
	if flits[classRead] != 2 || flits[classCoh] != 2 || flits[classWrite] != 6 {
		t.Errorf("flit sizes read/coh/write = %d/%d/%d, want 2/2/6",
			flits[classRead], flits[classCoh], flits[classWrite])
	}
}

func TestRepliesOnReadsOnly(t *testing.T) {
	s := NewSource(*BenchmarkByName("fft"), 192)
	got := 0
	emit := func(src, dst, flits, class int) {
		got++
		if class != classReply || flits != flitsReply {
			t.Errorf("reply class/flits = %d/%d", class, flits)
		}
	}
	s.OnDelivered(0, 1, 2, flitsRead, classRead, emit)
	s.OnDelivered(0, 1, 2, flitsWrite, classWrite, emit)
	s.OnDelivered(0, 1, 2, flitsCoh, classCoh, emit)
	s.OnDelivered(0, 1, 2, flitsReply, classReply, emit)
	if got != 1 {
		t.Errorf("got %d replies, want 1 (reads only)", got)
	}
}

func TestRecordDeterministic(t *testing.T) {
	mk := func() []event {
		s := NewSource(*BenchmarkByName("dedup"), 192)
		return record(s, 500, 99)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
}

// TestSourceMatchesPerNodeLoop pins Generate's scan against the loop it
// replaced: one Float64() >= Rate decision per active node, and for each
// issuing node its destination and class draws, written out on math/rand —
// the generator every recorded result was produced with.
func TestSourceMatchesPerNodeLoop(t *testing.T) {
	for _, n := range []int{1, 3, 54, 192} {
		for _, name := range []string{"fft", "radios.", "water-s"} {
			s := NewSource(*BenchmarkByName(name), n)
			const cycles, seed = 4000, 5
			got := record(s, cycles, seed)

			b, threads := s.B, s.ThreadsPerCopy
			r := rand.New(rand.NewSource(seed))
			var want []event
			for c := int64(0); c < cycles; c++ {
				for node := 0; node < s.Copies*threads; node++ {
					if r.Float64() >= b.Rate {
						continue
					}
					base := node / threads * threads
					local := node - base
					var d int
					switch x := r.Float64(); {
					case x < b.Hotspot:
						d = r.Intn(4)
					case x < b.Hotspot+b.Locality:
						quarter := max(threads/4, 1)
						d = local/quarter*quarter + r.Intn(quarter)
					default:
						d = r.Intn(threads)
					}
					if d += base; d == node {
						d = base + (local+1)%threads
					}
					e := event{Cycle: c, Src: int32(node), Dst: int32(d), Flits: flitsCoh, Class: classCoh}
					switch x := r.Float64(); {
					case x < b.ReadFrac:
						e.Flits, e.Class = flitsRead, classRead
					case x < b.ReadFrac+b.WriteFrac:
						e.Flits, e.Class = flitsWrite, classWrite
					}
					want = append(want, e)
				}
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s on %d nodes: %d events, reference loop %d, or they differ", name, n, len(got), len(want))
			}
		}
	}
}

// event is one injected message.
type event struct {
	Cycle int64
	Src   int32
	Dst   int32
	Flits int16
	Class int16
}

// record runs a Source standalone for the given number of cycles and
// captures the primary (non-reply) messages it would inject.
func record(src *Source, cycles int64, seed int64) []event {
	r := rng.New(seed)
	var out []event
	for t := int64(0); t < cycles; t++ {
		src.Generate(t, r, func(s, d, flits, class int) {
			out = append(out, event{Cycle: t, Src: int32(s), Dst: int32(d),
				Flits: int16(flits), Class: int16(class)})
		})
	}
	return out
}
