// White-box engine tests: the zero-allocation steady-state contract, the
// latency histogram, and the engine containers (stall FIFO, wheel).

package sim

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// bernoulliSource mirrors traffic.Synthetic with a uniform pattern. The
// real traffic package imports sim and so cannot be used from white-box
// tests.
type bernoulliSource struct {
	n     int
	rate  float64
	flits int
}

func (b *bernoulliSource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	prob := b.rate / float64(b.flits)
	for node := 0; node < b.n; node++ {
		if rng.Float64() < prob {
			for {
				d := rng.Intn(b.n)
				if d != node {
					emit(node, d, b.flits, 0)
					break
				}
			}
		}
	}
}

func (b *bernoulliSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// minTable compiles the generic minimal route table of net over vcs VCs.
func minTable(t testing.TB, net *topo.Network, vcs int) *routing.RouteTable {
	t.Helper()
	tab, err := routing.NewTable(net, routing.Kind{Class: routing.ClassGeneric}, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func newEngineSim(t testing.TB, scheme core.Scheme, rate float64) *Sim {
	t.Helper()
	net := engineNet(t)
	return newEngineSimOn(t, Config{Net: net, Table: minTable(t, net, 2), Buffers: core.Buffers{VCs: 2}}, scheme, rate)
}

// engineNet is the SN q=5 subgroup network (50 routers, 200 nodes) the
// engine tests run on.
func engineNet(t testing.TB) *topo.Network {
	t.Helper()
	sn, err := core.New(core.Params{Q: 5, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sn.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// newGridEngineSim returns newEngineSim on a grid network, routed by its
// kind's table on vcs VCs.
func newGridEngineSim(net *topo.Network, kind routing.Kind, vcs int) func(testing.TB, core.Scheme, float64) *Sim {
	return func(t testing.TB, scheme core.Scheme, rate float64) *Sim {
		t.Helper()
		tab, err := routing.NewTable(net, kind, vcs)
		if err != nil {
			t.Fatal(err)
		}
		return newEngineSimOn(t, Config{Net: net, Table: tab, Buffers: core.Buffers{VCs: vcs}}, scheme, rate)
	}
}

// newAdaptiveEngineSim returns newEngineSim with every packet routed by
// policy on vcs VCs.
func newAdaptiveEngineSim(policy AdaptivePolicy, vcs int) func(testing.TB, core.Scheme, float64) *Sim {
	return func(t testing.TB, scheme core.Scheme, rate float64) *Sim {
		t.Helper()
		return newEngineSimOn(t, Config{Net: engineNet(t), Adaptive: policy, Buffers: core.Buffers{VCs: vcs}}, scheme, rate)
	}
}

// newEngineSimOn completes a config naming the network, its routes and VC
// count with the engine tests' traffic, seed and window, and builds it.
func newEngineSimOn(t testing.TB, cfg Config, scheme core.Scheme, rate float64) *Sim {
	t.Helper()
	cfg.Scheme = scheme
	cfg.Traffic = &bernoulliSource{n: cfg.Net.N(), rate: rate, flits: 6}
	cfg.Seed = 211
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 20000, 4000
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSteadyStateZeroAllocs pins the tentpole contract: once warm, the
// cycle loop performs zero heap allocations — packets come from the
// freelist, routes are walked into packet buffers that recycle with them,
// input and injection buffers live in slabs New sized, the other queues are
// rings that keep their backing arrays, and credits/ejections ride
// preallocated timing-wheel buckets.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, sc := range []struct {
		name   string
		scheme core.Scheme
		new    func(testing.TB, core.Scheme, float64) *Sim
		rate   float64
	}{
		{"EB", core.EB, newEngineSim, 0.06},
		{"CBR", core.CBR, newEngineSim, 0.06},
		{"EL", core.EL, newEngineSim, 0.06},
		// A multi-word occupancy walk, loaded enough to keep many input
		// VCs of a router occupied at once: fbf4 at 10 VCs is 13 ports x 10
		// VCs, 130 input slots per router, three occupancy words.
		{"fbf4_v10/EB", core.EB, newGridEngineSim(topo.FBF(10, 5, 4), routing.Kind{Class: routing.ClassFBF, RX: 10, RY: 5}, 10), 0.20},
		// Two-phase routes: the send-time next word splits each route at
		// its X phase, on a torus by dateline and on a PFBF by partition.
		{"t2d/EB", core.EB, newGridEngineSim(topo.Torus2D(8, 8, 3), routing.Kind{Class: routing.ClassTorus, RX: 8, RY: 8}, 2), 0.06},
		{"pfbf/EB", core.EB, newGridEngineSim(topo.PFBF(2, 2, 4, 4, 3), routing.Kind{Class: routing.ClassPFBF, PX: 2, PY: 2, RX: 4, RY: 4}, 2), 0.06},
		// Per-packet route choice: the policies append their words into
		// the recycled packet buffers like the table walk does.
		{"ugal-l/EB", core.EB, newAdaptiveEngineSim(&UGAL{Global: false}, 4), 0.06},
		{"ugal-g/CBR", core.CBR, newAdaptiveEngineSim(&UGAL{Global: true}, 4), 0.06},
		{"min-adapt/EB", core.EB, newAdaptiveEngineSim(&MinAdaptive{}, 2), 0.06},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			// New initialises every mutable field through reset(), the same
			// path a reused episode engine takes between episodes.
			s := sc.new(t, sc.scheme, sc.rate)
			// Warm up past the warmup phase and into measurement so every
			// ring, pool and wheel bucket has reached its steady-state
			// high-water mark.
			warm := s.cfg.WarmupCycles + 2000
			for s.now = 0; s.now < warm; s.now++ {
				s.step()
			}
			allocs := testing.AllocsPerRun(500, func() {
				s.step()
				s.now++
			})
			if allocs != 0 {
				t.Fatalf("steady-state cycle loop allocates %.2f times per cycle, want 0", allocs)
			}
			if s.doneMeasured == 0 {
				t.Fatal("measurement window delivered nothing; test exercised an idle network")
			}
		})
	}
}

// TestSteadyStateZeroAllocsCompactTable is the zero-allocation contract on
// a table built straight from the sweep (CompileCompact;
// TestSteadyStateZeroAllocs above goes through NewTable): the next-hop walk
// at enqueue time appends into a per-packet buffer that recycles through the
// freelist, so once every pooled packet's buffer has reached the network
// diameter the cycle loop allocates nothing.
func TestSteadyStateZeroAllocsCompactTable(t *testing.T) {
	sn, err := core.New(core.Params{Q: 5, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	net, err := sn.Network(core.LayoutSubgroup, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := routing.CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Net:           net,
		Table:         tab,
		Buffers:       core.Buffers{VCs: 2, Scheme: core.EB},
		Traffic:       &bernoulliSource{n: net.N(), rate: 0.06, flits: 6},
		Seed:          211,
		WarmupCycles:  2000,
		MeasureCycles: 20000,
		DrainCycles:   4000,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := s.cfg.WarmupCycles + 2000
	for s.now = 0; s.now < warm; s.now++ {
		s.step()
	}
	allocs := testing.AllocsPerRun(500, func() {
		s.step()
		s.now++
	})
	if allocs != 0 {
		t.Fatalf("compact-table steady-state loop allocates %.2f times per cycle, want 0", allocs)
	}
	if s.doneMeasured == 0 {
		t.Fatal("measurement window delivered nothing; test exercised an idle network")
	}
}

// onOffSource mirrors traffic.Synthetic with the OnOff bursty process (the
// traffic package imports sim, so white-box tests re-state the semantics):
// per-node two-state chain, geometric dwell, injection at rate/duty while on.
type onOffSource struct {
	n, flits        int
	rate, duty      float64
	exitOn, exitOff float64
	on              []bool
}

func newOnOffSource(n int, rate, burstLen, duty float64) *onOffSource {
	return &onOffSource{
		n: n, flits: 6, rate: rate, duty: duty,
		exitOn:  1 / burstLen,
		exitOff: duty / ((1 - duty) * burstLen),
		on:      make([]bool, n),
	}
}

func (b *onOffSource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	prob := b.rate / float64(b.flits)
	for node := 0; node < b.n; node++ {
		if b.on[node] {
			if rng.Float64() < b.exitOn {
				b.on[node] = false
			}
		} else if rng.Float64() < b.exitOff {
			b.on[node] = true
		}
		if !b.on[node] || rng.Float64() >= prob/b.duty {
			continue
		}
		for {
			d := rng.Intn(b.n)
			if d != node {
				emit(node, d, b.flits, 0)
				break
			}
		}
	}
}

func (b *onOffSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
}

// reqReplySource mirrors traffic.ReqReply: a closed loop where every node
// keeps `window` requests outstanding, each delivered request triggers a
// data-sized reply, and each delivered reply returns window credit. Like
// the real source it implements NextFirer: with every window full Generate
// is a zero-RNG no-op until a reply lands.
type reqReplySource struct {
	n, window   int
	outstanding []int
	totalOut    int
}

func (s *reqReplySource) Generate(t int64, rng *rng.Stream, emit func(src, dst, flits, class int)) {
	if s.outstanding == nil {
		s.outstanding = make([]int, s.n)
	}
	for node := 0; node < s.n; node++ {
		for s.outstanding[node] < s.window {
			for {
				d := rng.Intn(s.n)
				if d != node {
					emit(node, d, 2, 1)
					break
				}
			}
			s.outstanding[node]++
			s.totalOut++
		}
	}
}

func (s *reqReplySource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	switch class {
	case 1:
		emit(dst, src, 6, 2)
	case 2:
		s.outstanding[dst]--
		s.totalOut--
	}
}

func (s *reqReplySource) NextFire(t int64) int64 {
	if s.outstanding != nil && s.totalOut >= s.n*s.window {
		return int64(math.MaxInt64)
	}
	return t + 1
}

// TestSteadyStateZeroAllocsCalendar extends the zero-allocation contract to
// the calendar path: the loop the engine actually runs — step, then a skip
// decision — must stay allocation-free even when skips fire, which they do
// constantly on an idle network. The idle regime is exactly where the
// calendar earns its keep, so an allocating skip would hand back the win.
func TestSteadyStateZeroAllocsCalendar(t *testing.T) {
	for _, sc := range []struct {
		name   string
		scheme core.Scheme
	}{
		{"EB", core.EB},
		{"CBR", core.CBR},
		{"EL", core.EL},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			s := newEngineSim(t, sc.scheme, 0.06)
			// Step through generation so the measured window covers the
			// drain: live traffic first (skip decisions that must decline),
			// then the drained network (skips that fire).
			genEnd := s.cfg.WarmupCycles + s.cfg.MeasureCycles
			for s.now = 0; s.now < genEnd; s.now++ {
				s.step()
			}
			total := genEnd + s.cfg.DrainCycles
			allocs := testing.AllocsPerRun(500, func() {
				s.step()
				s.skipAhead(total)
				s.now++
			})
			if allocs != 0 {
				t.Fatalf("calendar cycle loop allocates %.2f times per cycle, want 0", allocs)
			}
			if s.eng.cyclesSkipped == 0 {
				t.Fatal("drain phase skipped nothing; skip path not exercised")
			}
		})
	}
}

// TestSkipAccounting pins the CyclesSkipped/CalendarPeak telemetry: nonzero
// on an idle workload (where the drain phase alone is thousands of dead
// cycles), exactly zero at saturation (active sets never empty, so the
// calendar never gets a skip), and exactly zero under Config.CycleStep.
func TestSkipAccounting(t *testing.T) {
	t.Run("IdleSkips", func(t *testing.T) {
		s := newEngineSim(t, core.EB, 0.002)
		s.cfg.Traffic = &reqReplySource{n: s.net.N(), window: 1}
		s.Run()
		st := s.EngineStats()
		if st.CyclesSkipped == 0 {
			t.Fatalf("idle closed loop skipped nothing: %+v", st)
		}
		if st.CalendarPeak == 0 {
			t.Fatalf("skips fired but no calendar backlog was sampled: %+v", st)
		}
		if st.CyclesSkipped >= st.Cycles {
			t.Fatalf("skipped %d of %d cycles; skips must be a strict subset", st.CyclesSkipped, st.Cycles)
		}
	})
	t.Run("SaturationNeverSkips", func(t *testing.T) {
		s := newEngineSim(t, core.EB, 0.40)
		s.cfg.DrainCycles = 500 // keep the saturated drain bounded
		s.Run()
		st := s.EngineStats()
		if st.CyclesSkipped != 0 {
			t.Fatalf("saturated run skipped %d cycles, want exactly 0", st.CyclesSkipped)
		}
		if st.CalendarPeak != 0 {
			t.Fatalf("saturated run sampled calendar peak %d, want 0 (no skip decisions)", st.CalendarPeak)
		}
	})
	t.Run("CycleStepNeverSkips", func(t *testing.T) {
		s := newEngineSim(t, core.EB, 0.002)
		s.cfg.CycleStep = true
		s.calendar = false
		s.Run()
		st := s.EngineStats()
		if st.CyclesSkipped != 0 || st.CalendarPeak != 0 {
			t.Fatalf("CycleStep run reported skip telemetry: %+v", st)
		}
	})
}

// TestPercentile pins the nearest-rank floor semantics of the latency
// histogram's percentile on known distributions.
func TestPercentile(t *testing.T) {
	quantile := func(xs []int64, p float64) float64 {
		var h latHist
		for _, x := range xs {
			h.add(x)
		}
		return h.quantile(p)
	}
	perm := rand.New(rand.NewSource(1)).Perm(100)
	xs := make([]int64, 100)
	for i, v := range perm {
		xs[i] = int64(v + 1) // 1..100 shuffled
	}
	if got := quantile(xs, 0.99); got != 99 {
		// idx = floor(0.99 * 99) = 98 -> sorted[98] = 99.
		t.Errorf("P99 of 1..100 = %v, want 99", got)
	}
	if got := quantile(xs, 1.0); got != 100 {
		t.Errorf("P100 of 1..100 = %v, want 100", got)
	}
	if got := quantile(xs, 0.5); got != 50 {
		// idx = floor(0.5 * 99) = 49 -> sorted[49] = 50.
		t.Errorf("P50 of 1..100 = %v, want 50", got)
	}
	if got := quantile([]int64{7}, 0.99); got != 7 {
		t.Errorf("P99 of a single sample = %v, want 7", got)
	}
	skewed := []int64{1000, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := quantile(skewed, 0.99); got != 1 {
		// idx = floor(0.99 * 9) = 8 -> sorted[8] = 1: with only ten
		// samples the nearest-rank floor lands below the outlier.
		t.Errorf("P99 of ten samples = %v, want 1 (floor semantics)", got)
	}
	if got := quantile(skewed, 1.0); got != 1000 {
		t.Errorf("max of skewed = %v, want 1000", got)
	}
}

// FuzzLatencyHistogram checks the histogram against the sort-based
// definition it replaced, on latency multisets decoded from the input as
// uvarints below 1<<20 cycles: the mean is the exact sum over the count, and
// each quantile is the nearest-rank sample floor(p*(n-1)) of the sorted
// latencies.
func FuzzLatencyHistogram(f *testing.F) {
	enc := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	seq := func(n int, x func(i int) uint64) []byte {
		xs := make([]uint64, n)
		for i := range xs {
			xs[i] = x(i)
		}
		return enc(xs...)
	}
	f.Add(enc(17))                                                        // n = 1
	f.Add(seq(37, func(int) uint64 { return 23 }))                        // all equal
	f.Add(seq(101, func(i int) uint64 { return uint64(i * 7919 % 211) })) // n-1 = 100
	f.Add(seq(201, func(i int) uint64 { return uint64(200 - i) }))        // n-1 = 200
	f.Add(enc(12, 40, 1<<20-1, 3, 12))                                    // one very large latency
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []int64
		for len(data) > 0 {
			x, k := binary.Uvarint(data)
			if k <= 0 {
				break
			}
			xs = append(xs, int64(x%(1<<20)))
			data = data[k:]
		}
		if len(xs) == 0 {
			return
		}
		var h latHist
		var sum int64
		for _, x := range xs {
			h.add(x)
			sum += x
		}
		sorted := slices.Sorted(slices.Values(xs))
		if h.n != int64(len(xs)) || h.sum != sum {
			t.Fatalf("histogram holds %d latencies summing to %d, want %d summing to %d", h.n, h.sum, len(xs), sum)
		}
		if got, want := float64(h.sum)/float64(h.n), float64(sum)/float64(len(xs)); got != want {
			t.Fatalf("mean %v, want %v", got, want)
		}
		for _, p := range []float64{0, 0.5, 0.99, 1} {
			want := float64(sorted[int(p*float64(len(sorted)-1))])
			if got := h.quantile(p); got != want {
				t.Fatalf("quantile %v of %d latencies = %v, want %v", p, len(xs), got, want)
			}
		}
		// Reset as Sim.reset does (truncate, keep capacity): no stale count
		// may survive below the next run's only latency.
		top := sorted[len(sorted)-1]
		h = latHist{counts: h.counts[:0]}
		h.add(top)
		if h.n != 1 || h.sum != top || h.quantile(0) != float64(top) {
			t.Fatalf("after reset: n %d, sum %d, p0 %v; want 1, %d, %d", h.n, h.sum, h.quantile(0), top, top)
		}
	})
}

// TestStallFIFO: a fifo wraps inside its own window of the slab, leaves
// its neighbours alone, and panics on a push past capacity.
func TestStallFIFO(t *testing.T) {
	slab := make([]flit, 7)
	q := fifo{off: 2, size: 3}
	for i := 0; i < 10; i++ {
		q.push(slab, flit{idx: uint16(i)})
		q.push(slab, flit{idx: uint16(100 + i)})
		if got := q.pop(slab).idx; got != uint16(i) {
			t.Fatalf("pop %d = %d", i, got)
		}
		if got := q.pop(slab).idx; got != uint16(100+i) {
			t.Fatalf("pop %d = %d", 100+i, got)
		}
	}
	for i := 0; i < 3; i++ {
		q.push(slab, flit{idx: uint16(i)})
	}
	for i, f := range slab {
		if (i < 2 || i >= 5) && f != (flit{}) {
			t.Fatalf("slab[%d] = %+v outside the window [2, 5)", i, f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push past capacity did not panic")
		}
	}()
	q.push(slab, flit{})
}

func TestWheel(t *testing.T) {
	w := newWheel[int](5)
	w.schedule(10, 12, 42)
	w.schedule(10, 11, 7)
	w.schedule(10, 12, 43)
	if got := w.take(11); len(got) != 1 || got[0] != 7 {
		t.Fatalf("take(11) = %v", got)
	}
	if got := w.take(12); len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("take(12) = %v", got)
	}
	if w.pending != 0 {
		t.Fatalf("pending = %d", w.pending)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at or before now must panic")
		}
	}()
	w.schedule(10, 10, 1)
}

// TestWheelPastHorizonPanics pins the horizon contract: every wheel is
// sized to the longest delay its events can have, so an event at or past
// now+len(buckets) — which would wrap into an earlier cycle's bucket — is
// an engine bug and panics, like one at or before now.
func TestWheelPastHorizonPanics(t *testing.T) {
	w := newWheel[int](5) // 8 buckets
	w.schedule(10, 17, 1) // the last cycle within the horizon
	if got := w.take(17); len(got) != 1 || got[0] != 1 {
		t.Fatalf("take(17) = %v, want [1]", got)
	}
	for _, at := range []int64{18, 30} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("schedule(10, %d) on an 8-bucket wheel did not panic", at)
				}
			}()
			w.schedule(10, at, 2)
		}()
	}
	if w.pending != 0 {
		t.Fatalf("pending = %d after refused schedules, want 0", w.pending)
	}
}

// TestWheelNextDue pins the bucket-to-cycle arithmetic across wraparound.
func TestWheelNextDue(t *testing.T) {
	w := newWheel[int](4)
	if got := w.nextDue(100); got != int64(math.MaxInt64) {
		t.Fatalf("nextDue on empty wheel = %d, want MaxInt64", got)
	}
	w.schedule(100, 103, 1)
	w.schedule(100, 101, 2)
	if got := w.nextDue(100); got != 101 {
		t.Fatalf("nextDue(100) = %d, want 101", got)
	}
	w.take(101)
	if got := w.nextDue(101); got != 103 {
		t.Fatalf("nextDue(101) = %d, want 103", got)
	}
	w.take(102)
	w.take(103)
	if got := w.nextDue(103); got != int64(math.MaxInt64) {
		t.Fatalf("nextDue after drain = %d, want MaxInt64", got)
	}
}

// TestEngineStatsPopulated checks the telemetry block reflects a real run:
// packets recycle through the freelist and active sets stay well below the
// topology size at low load.
func TestEngineStatsPopulated(t *testing.T) {
	s := newEngineSim(t, core.EB, 0.02)
	s.Run()
	st := s.EngineStats()
	if st.Cycles == 0 || st.PacketAllocs == 0 {
		t.Fatalf("empty engine stats: %+v", st)
	}
	if st.PacketReuses == 0 {
		t.Error("no packet reuse in a 26k-cycle run; freelist broken")
	}
	if st.AvgActiveRouters <= 0 || st.AvgActiveRouters >= float64(s.net.Nr) {
		t.Errorf("avg active routers %.1f out of (0, %d)", st.AvgActiveRouters, s.net.Nr)
	}
	if st.PeakCreditEvents == 0 {
		t.Error("credit wheel never held an event under edge buffers")
	}
	if st.PeakEjectEvents == 0 {
		t.Error("ejection wheel never held an event")
	}
}

// TestMemEstimateTracksNew keeps the MemBudgetBytes guard honest: for every
// buffer scheme, on the 200-node and the 4096-node Slim NoC, memEstimate
// (minus the supplied route table, which New does not allocate) must stay
// within 0.5x-1.5x of what New actually allocates. The adaptive case counts
// the table in full: New ignores the supplied one and compiles its own.
func TestMemEstimateTracksNew(t *testing.T) {
	for _, nc := range []struct {
		name string
		q, p int
	}{{"sn_subgr_200", 5, 4}, {"sn_q16", 16, 8}} {
		sn, err := core.New(core.Params{Q: nc.q, P: nc.p})
		if err != nil {
			t.Fatal(err)
		}
		net, err := sn.Network(core.LayoutSubgroup, 1)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := routing.CompileCompact(net, 2)
		if err != nil {
			t.Fatal(err)
		}
		type estCase struct {
			name     string
			scheme   core.Scheme
			adaptive AdaptivePolicy
		}
		cases := []estCase{{"ugal-l", core.EB, &UGAL{}}}
		for _, sc := range resetSchemes {
			cases = append(cases, estCase{sc.name, sc.scheme, nil})
		}
		for _, sc := range cases {
			t.Run(nc.name+"/"+sc.name, func(t *testing.T) {
				cfg := Config{Net: net, Table: tab, Adaptive: sc.adaptive, Buffers: core.Buffers{VCs: 2, Scheme: sc.scheme, H: 9},
					Traffic: &bernoulliSource{n: net.N(), rate: 0.1, flits: 6}}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				s, err := New(cfg)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				measured := float64(after.TotalAlloc - before.TotalAlloc)
				est := float64(s.cfg.memEstimate(s.stride))
				if sc.adaptive == nil {
					est -= float64(tab.MemBytes())
				} else {
					static := s.cfg
					static.Adaptive = nil
					if want := static.memEstimate(s.stride); int64(est) != want {
						t.Errorf("adaptive memEstimate %.0f B, want the static run's %d B: the table New compiles must be priced", est, want)
					}
				}
				r := est / measured
				t.Logf("memEstimate %.0f KiB, New allocated %.0f KiB (ratio %.2f)", est/1024, measured/1024, r)
				if r < 0.5 || r > 1.5 {
					t.Errorf("memEstimate %.0f KiB vs %.0f KiB allocated by New: ratio %.2f outside [0.5, 1.5]", est/1024, measured/1024, r)
				}
			})
		}
	}
}
