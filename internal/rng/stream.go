// Package rng is the engine's random stream: a concrete generator, its word
// draw small enough to inline, that yields, call for call, exactly what
// rand.New(rand.NewSource(seed)) from math/rand yields. The golden fixtures, the store's PointKeys and the
// benchmark digests were all recorded against that stream, so the identity
// is a compatibility contract — pinned by a differential test against
// math/rand (TestStreamMatchesMathRand, FuzzStreamMatchesMathRand) rather
// than by sharing code, because the standard library keeps its generator
// behind two interface hops (Rand -> Source -> rngSource) that cost more
// than the draw itself.
//
// The standard source is the additive lagged-Fibonacci recurrence
//
//	x[n] = x[n-607] + x[n-273]
//
// over full 64-bit words (Source64.Uint64 exposes them). A Stream keeps the
// next 607 outputs in a ring, hands them out by index, and when they run out
// advances the whole ring one generation in two straight loops. Seeding
// reads the first generation from a pooled standard source, so no table of
// the standard library is copied here. Int63, Float64 and Intn repeat the
// derivations of math/rand v1 (Float64's redraw when the quotient rounds to
// 1, Int31n's power-of-two and rejection branches).
//
// A Stream is not safe for concurrent use.
package rng

import (
	"math/rand"
	"sync"
)

const (
	ringLen = 607
	ringTap = 273
	mask63  = 1<<63 - 1
	// redrawFrom is the first Int63 value v for which float64(v)/(1<<63)
	// rounds to 1; math/rand's Float64 draws again on those (512 values in
	// 2^63).
	redrawFrom = 1<<63 - 512
)

// Stream is one seeded random stream. The zero value is not usable; build
// one with New.
type Stream struct {
	// ring[pos:] are the next outputs. pos == ringLen means none are left:
	// the next draw refills — from seed when pending, else by stepping the
	// recurrence.
	ring    [ringLen]uint64
	pos     int
	seed    int64
	pending bool

	// The scan bound of the last probability FirstBelow was asked for; a
	// cache of a pure function, so Seed leaves it alone. The zero value is
	// consistent: threshold(0) is 0.
	prob float64
	thr  uint64
}

// sources recycles the standard-library sources a Stream seeds itself from,
// so seeding allocates only when the pool is empty.
var sources sync.Pool

// New returns a Stream whose draws equal those of
// rand.New(rand.NewSource(seed)).
func New(seed int64) *Stream {
	s := new(Stream)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at the beginning of seed's sequence. It only
// records the seed: the state is built by the first draw, so a stream that
// is reseeded and never drawn from costs nothing.
func (s *Stream) Seed(seed int64) {
	s.seed, s.pending, s.pos = seed, true, ringLen
}

// refill makes ring[0:] the next ringLen outputs.
func (s *Stream) refill() {
	s.pos = 0
	if s.pending {
		s.pending = false
		src, _ := sources.Get().(rand.Source64)
		if src == nil {
			src = rand.NewSource(s.seed).(rand.Source64)
		} else {
			src.Seed(s.seed)
		}
		for i := range s.ring {
			s.ring[i] = src.Uint64()
		}
		sources.Put(src)
		return
	}
	// ring[i] holds x[n+i]; its successor x[n+i+607] = x[n+i] + x[n+i+334]
	// takes the second operand from this generation while i+334 < 607 and
	// from the already advanced head of the ring after that.
	head, tail := s.ring[:ringTap], s.ring[ringLen-ringTap:]
	for i := range head {
		head[i] += tail[i]
	}
	rest, lag := s.ring[ringTap:], s.ring[:ringLen-ringTap]
	for i := range rest {
		rest[i] += lag[i]
	}
}

// Uint64 returns the next 64-bit word of the recurrence.
func (s *Stream) Uint64() uint64 {
	if s.pos == ringLen {
		s.refill()
	}
	v := s.ring[s.pos]
	s.pos++
	return v
}

// Int63 returns a non-negative 63-bit integer, as (*rand.Rand).Int63.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & mask63) }

// Float64 returns a number in [0, 1), as (*rand.Rand).Float64.
func (s *Stream) Float64() float64 {
	for {
		if v := s.Uint64() & mask63; v < redrawFrom {
			return float64(int64(v)) / (1 << 63)
		}
	}
}

// Intn returns a number in [0, n), as (*rand.Rand).Intn. It panics if
// n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.int31n(int32(n)))
	}
	return int(s.int63n(int64(n)))
}

func (s *Stream) int31() int32 { return int32(s.Int63() >> 32) }

func (s *Stream) int31n(n int32) int32 {
	if n&(n-1) == 0 {
		return s.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := s.int31()
	for v > max {
		v = s.int31()
	}
	return v % n
}

func (s *Stream) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > max {
		v = s.Int63()
	}
	return v % n
}

// threshold turns a probability into the integer bound FirstBelow scans
// with: the number of Int63 values v below the redraw band whose Float64,
// float64(v)/(1<<63), is < prob. Float64() < prob and Int63() < threshold(prob)
// are then the same predicate on the same word. NaN and prob <= 0 give 0
// (never), prob >= 1 gives the whole range below the band (always).
// FirstBelow calls it once per change of prob.
func threshold(prob float64) uint64 {
	// The quotient is monotone in v, so the bound is found by bisection with
	// the float predicate itself.
	lo, hi := uint64(0), uint64(redrawFrom)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < prob {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FirstBelow makes up to n Float64() < prob decisions and returns the index
// of the first that holds, or n if none does. It returns what this loop
// would, and leaves the stream where this loop would,
//
//	for i := 0; i < n; i++ { if s.Float64() < prob { return i } }; return n
//
// but compares the ring's words in place against threshold(prob): one load,
// one mask and one compare per decision.
func (s *Stream) FirstBelow(prob float64, n int) int {
	if prob != s.prob {
		s.prob, s.thr = prob, threshold(prob)
	}
	thr := s.thr
	for i := 0; i < n; {
		if s.pos == ringLen {
			s.refill()
		}
		win := s.ring[s.pos:min(s.pos+n-i, ringLen)]
		used, decided := len(win), len(win)
		for j, w := range win {
			v := w & mask63
			if v < thr {
				s.pos += j + 1
				return i + j
			}
			if v >= redrawFrom {
				// Float64 would draw again: the word is spent, the
				// decision it was for is still open.
				used, decided = j+1, j
				break
			}
		}
		s.pos += used
		i += decided
	}
	return n
}
