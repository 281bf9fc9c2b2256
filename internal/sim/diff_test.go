package sim_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Differential harness for the event calendar: randomized run specs
// (topology x scheme x workload x load x seed, drawn from a seeded
// generator) execute through the calendar engine AND through forced
// cycle-stepping, and the two full Results — plus EngineStats up to the two
// skip-telemetry fields — must be byte-identical. The fixed corpus runs in
// every `go test` (and in CI under -race); FuzzCalendarEquivalence exposes
// the same oracle to `go test -fuzz` for open-ended exploration.

// diffSpec is one randomized configuration. Everything is drawn from the
// corpus RNG so a spec is reproducible from its draw sequence alone.
type diffSpec struct {
	q, p     int
	scheme   sim.BufferScheme
	h        int
	vcs      int
	shape    int // 0 bernoulli, 1 onoff, 2 reqreply, 3 ugal-adaptive, 4 hot-region
	rate     float64
	burstLen float64
	duty     float64
	window   int
	hotRate  float64
	seed     int64
}

// hotRegionSource drives one busy region while the rest of the network
// stays completely idle: the first `hot` nodes exchange Bernoulli traffic
// among themselves, every other node never injects. Under the domain-
// parallel engine most domains therefore see no work at all, which is
// exactly the regime the per-domain calendar fast-forwards — and exactly
// where a skipping bug would silently desynchronize domains.
type hotRegionSource struct {
	n, hot, flits int
	rate          float64
}

func (h *hotRegionSource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	prob := h.rate / float64(h.flits)
	for node := 0; node < h.hot; node++ {
		if rng.Float64() < prob {
			for {
				d := rng.Intn(h.hot)
				if d != node {
					emit(node, d, h.flits, 0)
					break
				}
			}
		}
	}
}

func (h *hotRegionSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// drawDiffSpec samples one spec from the generator.
func drawDiffSpec(r *rand.Rand) diffSpec {
	sp := diffSpec{
		q:      []int{3, 5}[r.Intn(2)],
		p:      3,
		scheme: []sim.BufferScheme{sim.EdgeBuffers, sim.CentralBuffer, sim.ElasticLinks}[r.Intn(3)],
		h:      []int{1, 9}[r.Intn(2)],
		vcs:    2,
		shape:  r.Intn(5),
		rate:   []float64{0.004, 0.02, 0.06, 0.24}[r.Intn(4)],
		seed:   int64(r.Intn(1 << 16)),
	}
	if sp.q == 5 {
		sp.p = 4
	}
	sp.burstLen = []float64{8, 32}[r.Intn(2)]
	sp.duty = []float64{0.05, 0.25}[r.Intn(2)]
	sp.window = 1 + r.Intn(3)
	sp.hotRate = []float64{0.24, 0.40}[r.Intn(2)]
	if sp.shape == 3 {
		sp.vcs = 4 // UGAL's VC discipline needs the extra classes
	}
	return sp
}

// runDiffSpec executes one spec with the given engine tuning. The returned
// stats have the two calendar-only telemetry fields cleared — they are the
// only legitimate difference between modes — so callers compare everything
// that must be invariant with one struct equality; the cleared skip count is
// returned separately.
func runDiffSpec(t testing.TB, sp diffSpec, jobs int, cycleStep bool) (sim.Result, sim.EngineStats, int64) {
	t.Helper()
	sn, err := core.New(core.Params{Q: sp.q, P: sp.p})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sn.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := net.N()
	var src sim.Source
	switch sp.shape {
	case 1:
		src = &traffic.Synthetic{N: n, Rate: sp.rate, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n},
			Process: traffic.NewOnOff(n, sp.burstLen, sp.duty)}
	case 2:
		src = &traffic.ReqReply{N: n, Window: sp.window, ReqFlits: 2,
			ReplyFlits: 6, Pattern: traffic.Uniform{N: n}}
	case 4:
		// One busy region, rest idle: roughly the first eighth of the
		// nodes exchange traffic among themselves at a saturating rate
		// while every other node stays silent, so most engine domains
		// are pure skip-ahead territory.
		hot := n / 8
		if hot < 4 {
			hot = 4
		}
		src = &hotRegionSource{n: n, hot: hot, flits: 6, rate: sp.hotRate}
	default: // bernoulli open loop (shapes 0 and 3)
		src = &traffic.Synthetic{N: n, Rate: sp.rate, PacketFlits: 6,
			Pattern: traffic.Uniform{N: n}}
	}
	cfg := sim.Config{
		Net:           net,
		VCs:           sp.vcs,
		Scheme:        sp.scheme,
		H:             sp.h,
		Traffic:       src,
		Seed:          sp.seed,
		EngineJobs:    jobs,
		CycleStep:     cycleStep,
		WarmupCycles:  300,
		MeasureCycles: 900,
		DrainCycles:   1500,
	}
	if sp.shape == 3 {
		cfg.Adaptive = &sim.UGAL{Global: false}
	} else {
		cfg.Routing = minRouting(t, net, sp.vcs)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	st := s.EngineStats()
	skipped := st.CyclesSkipped
	st.CyclesSkipped, st.CalendarPeak = 0, 0
	return res, st, skipped
}

// assertDiffEquivalence is the shared oracle: calendar (serial and 4-domain)
// versus forced cycle-stepping on one spec. Returns the serial calendar
// run's skip count so corpus callers can assert skipping actually happened.
func assertDiffEquivalence(t testing.TB, sp diffSpec) int64 {
	calRes, calStats, skipped := runDiffSpec(t, sp, 0, false)
	cycRes, cycStats, _ := runDiffSpec(t, sp, 0, true)
	if calRes != cycRes {
		t.Errorf("spec %+v: calendar Result diverged from cycle-stepping\n calendar %+v\n  stepped %+v", sp, calRes, cycRes)
	}
	if calStats != cycStats {
		t.Errorf("spec %+v: calendar EngineStats diverged from cycle-stepping\n calendar %+v\n  stepped %+v", sp, calStats, cycStats)
	}
	parRes, parStats, _ := runDiffSpec(t, sp, 4, false)
	if parRes != cycRes {
		t.Errorf("spec %+v: 4-domain calendar Result diverged from cycle-stepping\n calendar %+v\n  stepped %+v", sp, parRes, cycRes)
	}
	if parStats != cycStats {
		t.Errorf("spec %+v: 4-domain calendar EngineStats diverged from cycle-stepping\n calendar %+v\n  stepped %+v", sp, parStats, cycStats)
	}
	return skipped
}

// TestCalendarDifferential runs the fixed corpus: 12 specs drawn from a
// pinned generator seed (4 under -short), each checked with the shared
// oracle. At least one corpus spec must actually exercise skipping, so the
// corpus cannot silently degenerate into always-saturated specs.
func TestCalendarDifferential(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	gen := rand.New(rand.NewSource(42))
	var totalSkipped int64
	for i := 0; i < n; i++ {
		sp := drawDiffSpec(gen)
		totalSkipped += assertDiffEquivalence(t, sp)
		t.Logf("corpus[%d] %s: ok", i, diffName(sp))
	}
	// Pinned hotspot specs (independent of the random draws): one busy
	// region, rest idle, across all three buffer schemes — the shape where
	// the per-domain calendar must fast-forward idle domains of a busy
	// network without drifting from cycle-stepping.
	pinned := []diffSpec{
		{q: 5, p: 4, scheme: sim.EdgeBuffers, h: 1, vcs: 2, shape: 4, hotRate: 0.40, seed: 501},
		{q: 5, p: 4, scheme: sim.CentralBuffer, h: 9, vcs: 2, shape: 4, hotRate: 0.24, seed: 502},
		{q: 3, p: 3, scheme: sim.ElasticLinks, h: 1, vcs: 2, shape: 4, hotRate: 0.40, seed: 503},
	}
	if testing.Short() {
		pinned = pinned[:1]
	}
	// Pinned saturated elastic specs, run even under -short: input latches
	// fill, so flits stall at the ends of their wires and are retried every
	// link phase — the one path where a landing waits on the receiver, and
	// where CBR's 2- and 4-cycle router paths share a lane.
	pinned = append(pinned,
		diffSpec{q: 5, p: 4, scheme: sim.CentralBuffer, h: 1, vcs: 2, rate: 0.40, seed: 504},
		diffSpec{q: 5, p: 4, scheme: sim.ElasticLinks, h: 9, vcs: 2, rate: 0.40, seed: 505},
	)
	for i, sp := range pinned {
		totalSkipped += assertDiffEquivalence(t, sp)
		t.Logf("pinned[%d] %s: ok", i, diffName(sp))
	}
	if totalSkipped == 0 {
		t.Error("no corpus spec skipped a single cycle; the corpus no longer exercises the calendar")
	}
}

func diffName(sp diffSpec) string {
	tag := []string{"bern", "onoff", "reqreply", "ugal", "hotregion"}[sp.shape]
	return []string{"eb", "cbr", "el"}[sp.scheme] + "_" + tag
}

// FuzzCalendarEquivalence exposes the differential oracle to go's fuzzer:
// every fuzz input is a generator seed expanded into one spec, so crashes
// reproduce from the seed alone.
//
//	go test ./internal/sim -fuzz FuzzCalendarEquivalence -fuzztime 30s
func FuzzCalendarEquivalence(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sp := drawDiffSpec(rand.New(rand.NewSource(seed)))
		// One scheme-shape pair per input keeps each execution fast enough
		// for the fuzzing loop; the spec space is covered across inputs.
		assertDiffEquivalence(t, sp)
	})
}
