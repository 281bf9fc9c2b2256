package main

import (
	"math/rand"

	"repro/slimnoc"
	"repro/slimnoc/serve"
)

// Inputs are generated here from -seed and nothing else; the program under
// test only ever sees the specs and requests this file produces.

const (
	// pointSlots is how many distinct sim seeds a point workload cycles
	// through: op i runs slot i%pointSlots, so every op after the first
	// cycle repeats an input whose digest is already known.
	pointSlots = 16
	// figureSlots is the same for figure-cold's exp.Options.Seed.
	figureSlots = 8
	// hotSet is the serve-mixed working set that stays inside the cache.
	hotSet = 16
	// batchLen is the transfer count of one serve-mixed batch request.
	batchLen = 32
	// maxFlits bounds a generated transfer's size.
	maxFlits = 16
)

// pointSpecs expands a point workload's base spec into its slot specs.
func pointSpecs(base slimnoc.RunSpec, seed int64) []slimnoc.RunSpec {
	specs := make([]slimnoc.RunSpec, pointSlots)
	for j := range specs {
		specs[j] = base
		specs[j].Sim.Seed = seed + int64(j)
	}
	return specs
}

type reqKind uint8

const (
	kindMiss  reqKind = iota // fresh single estimate: engine episode + cache Put
	kindHit                  // hot-set single estimate: cache hit after first use
	kindBatch                // batch of fresh transfers: one episode + cache Put
	numKinds
)

// kindSpans names a request kind: the span a traced request is recorded
// under and the stem of its per-layer metrics.
var kindSpans = [numKinds]string{"serve.miss", "serve.hit", "serve.batch32"}

// request is one generated serve-mixed request.
type request struct {
	kind      reqKind
	hot       int // hot-set index (kindHit)
	transfers []serve.WireTransfer
}

// reqGen is one session's seeded request sequence: 48% fresh singles, 40%
// hot-set singles, 12% batches. (Not the round 50/40/10: with those shares
// p90 would sit exactly on the edge between the miss and the batch latency
// modes and flip between them from run to run.) Fresh transfers are drawn
// without replacement from the whole (src, dst, flits) space, partitioned
// between the sessions, so a fresh request is never an accidental hit.
type reqGen struct {
	rng            *rand.Rand
	nodes          int
	session        int64
	fresh          int64 // fresh transfers drawn so far by this session
	offset, stride int64
	hot            []serve.WireTransfer
}

// maxC is the most sessions (and campaign jobs) the harness ever runs. The
// fresh-transfer space is always split maxC ways, so a session's stream does
// not depend on how many others there are.
const maxC = 2

func newReqGen(seed int64, session, nodes int) *reqGen {
	shared := rand.New(rand.NewSource(seed)) // what every session agrees on
	g := &reqGen{
		rng:     rand.New(rand.NewSource(seed*7919 + int64(session) + 1)),
		nodes:   nodes,
		session: int64(session),
	}
	space := g.space()
	g.offset = shared.Int63n(space)
	for g.stride = shared.Int63n(space) | 1; gcd(g.stride, space) != 1; g.stride += 2 {
	}
	g.hot = make([]serve.WireTransfer, hotSet)
	for i := range g.hot {
		g.hot[i] = g.transfer(shared.Int63n(space))
	}
	return g
}

func (g *reqGen) space() int64 { return int64(g.nodes) * int64(g.nodes-1) * maxFlits }

// transfer decodes one index of the transfer space (src != dst always).
func (g *reqGen) transfer(idx int64) serve.WireTransfer {
	n := int64(g.nodes)
	src := idx % n
	dst := (src + 1 + (idx/n)%(n-1)) % n
	return serve.WireTransfer{Src: int(src), Dst: int(dst), Flits: 1 + int(idx/(n*(n-1)))}
}

// freshTransfer returns this session's next never-used transfer.
func (g *reqGen) freshTransfer() serve.WireTransfer {
	k := g.fresh*maxC + g.session
	g.fresh++
	space := g.space()
	return g.transfer((g.offset + (k%space)*g.stride) % space)
}

func (g *reqGen) next() request {
	switch r := g.rng.Float64(); {
	case r < 0.48:
		return request{kind: kindMiss, transfers: []serve.WireTransfer{g.freshTransfer()}}
	case r < 0.88:
		h := g.rng.Intn(hotSet)
		return request{kind: kindHit, hot: h, transfers: g.hot[h : h+1]}
	default:
		// One never-used transfer makes the whole (ordered) batch a new
		// cache key; the rest are plain random draws.
		b := make([]serve.WireTransfer, batchLen)
		b[0] = g.freshTransfer()
		for i := 1; i < batchLen; i++ {
			b[i] = g.transfer(g.rng.Int63n(g.space()))
		}
		return request{kind: kindBatch, transfers: b}
	}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
