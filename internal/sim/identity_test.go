// Domain-parallel identity tests: the deterministic-parallelism contract
// says a run's every observable output — Result, EngineStats, estimate
// latencies — is byte-identical at every domain count, because each domain
// owns the wheels it schedules into and the observable ejections are taken
// in ascending domain order (see domain.go). These tests pin that across
// buffer schemes, the traffic package's workload shapes (Bernoulli, bursty
// on/off, request-reply), SMART links, and adaptive routing. CI runs them
// under -race without -short, which doubles them as the data-race proof for
// the worker pool.

package sim_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// domainCounts covers serial (1), even splits (2), a split where 50 routers
// divide unevenly (4 -> 12/13/12/13), and a prime count (7).
var domainCounts = []int{1, 2, 4, 7}

// uniform is the Bernoulli source with uniform destinations.
func uniform(n int, rate float64, flits int) *traffic.Synthetic {
	return &traffic.Synthetic{N: n, Rate: rate, PacketFlits: flits, Pattern: traffic.Uniform{N: n}}
}

func init() {
	sim.UniformTraffic = func(n int, rate float64, flits int) sim.Source { return uniform(n, rate, flits) }
}

// engineConfig is the SN q=5 p=4 engine test network, routed minimally on
// vcs VCs (or by UGAL-L when adaptive), under src at seed 211.
func engineConfig(t *testing.T, scheme core.Scheme, h, vcs int, mkSrc func(n int) sim.Source, adaptive bool) sim.Config {
	t.Helper()
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	cfg := sim.Config{
		Net:     net,
		Buffers: core.Buffers{VCs: vcs, Scheme: scheme, H: h},
		Traffic: mkSrc(net.N()),
		Seed:    211,
	}
	if adaptive {
		cfg.Adaptive = &sim.UGAL{Global: false}
	} else {
		cfg.Table = minTable(t, net, vcs)
	}
	return cfg
}

// runParallelCase runs the engine test network to completion with the
// given domain count.
func runParallelCase(t *testing.T, scheme core.Scheme, h, vcs, jobs int, mkSrc func(n int) sim.Source, adaptive bool) (sim.Result, sim.EngineStats) {
	t.Helper()
	cfg := engineConfig(t, scheme, h, vcs, mkSrc, adaptive)
	cfg.EngineJobs = jobs
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 1000, 3000, 3000
	s, res := runCfg(t, cfg)
	return res, s.EngineStats()
}

// assertIdentity runs a case at every domain count and compares each run
// field for field against the serial one.
func assertIdentity(t *testing.T, scheme core.Scheme, h, vcs int, mkSrc func(n int) sim.Source, adaptive bool) {
	t.Helper()
	wantRes, wantEng := runParallelCase(t, scheme, h, vcs, 1, mkSrc, adaptive)
	for _, jobs := range domainCounts[1:] {
		gotRes, gotEng := runParallelCase(t, scheme, h, vcs, jobs, mkSrc, adaptive)
		if gotRes != wantRes {
			t.Errorf("jobs=%d: Result diverged from serial\n got %+v\nwant %+v", jobs, gotRes, wantRes)
		}
		if gotEng != wantEng {
			t.Errorf("jobs=%d: EngineStats diverged from serial\n got %+v\nwant %+v", jobs, gotEng, wantEng)
		}
	}
}

// TestDomainParallelIdentity is the core identity matrix: every buffer
// scheme x every workload shape x domains in {1, 2, 4, 7}, each compared
// field for field against the serial run. A saturating rate keeps all
// domains busy and cross-domain traffic dense.
func TestDomainParallelIdentity(t *testing.T) {
	sources := []struct {
		name string
		mk   func(n int) sim.Source
	}{
		{"bernoulli", func(n int) sim.Source { return uniform(n, 0.20, 6) }},
		{"bursty", func(n int) sim.Source {
			src := uniform(n, 0.12, 6)
			src.Process = traffic.NewOnOff(n, 8, 0.25)
			return src
		}},
		{"reqreply", func(n int) sim.Source {
			return &traffic.ReqReply{N: n, Window: 4, ReqFlits: 2, ReplyFlits: 6, Pattern: traffic.Uniform{N: n}}
		}},
	}
	schemes := []struct {
		name   string
		scheme core.Scheme
	}{
		{"EB", core.EB},
		{"CBR", core.CBR},
		{"EL", core.EL},
	}
	for _, sc := range schemes {
		for _, src := range sources {
			if testing.Short() && (sc.scheme != core.EB && src.name != "bernoulli") {
				continue // -short: EB x all sources, all schemes x bernoulli
			}
			t.Run(sc.name+"/"+src.name, func(t *testing.T) {
				assertIdentity(t, sc.scheme, 1, 2, src.mk, false)
			})
		}
	}
}

// TestDomainParallelIdentitySMART repeats the identity check with SMART
// links (H=9): multi-hop-per-cycle wires shrink link latencies to 1 and
// maximise per-cycle cross-domain handoffs.
func TestDomainParallelIdentitySMART(t *testing.T) {
	assertIdentity(t, core.EB, 9, 2, func(n int) sim.Source { return uniform(n, 0.24, 6) }, false)
}

// TestDomainParallelIdentityAdaptive pins the adaptive path: UGAL reads
// live link occupancy (wire and input-buffer counts, settled at the end of
// the previous cycle) during the serial generate phase, so its RNG draw
// sequence and route choices must be unaffected by the domain count.
func TestDomainParallelIdentityAdaptive(t *testing.T) {
	assertIdentity(t, core.EB, 1, 4, func(n int) sim.Source { return uniform(n, 0.10, 6) }, true)
}

// delivery is one OnDelivered call, as orderSource records it.
type delivery struct {
	t                      int64
	src, dst, flits, class int
}

// orderSource issues Bernoulli requests and records every OnDelivered call
// in call order. Each delivered request is answered by a 1-flit reply from
// node 0, so the order of same-cycle ejections also decides the order the
// replies queue at node 0's NIC, and with it their injection.
type orderSource struct {
	*traffic.Synthetic
	log []delivery
}

func (o *orderSource) OnDelivered(t int64, src, dst, flits, class int, emit func(src, dst, flits, class int)) {
	o.log = append(o.log, delivery{t, src, dst, flits, class})
	if class == 0 && src != 0 {
		emit(0, src, 1, 1)
	}
}

// TestEjectionOrderAcrossDomains pins the ascending-domain ejection order
// the determinism contract promises: the sequence of OnDelivered calls,
// including the order of calls within one cycle, is the same at every
// domain count. Result equality alone does not show it, as most statistics
// do not depend on the order of same-cycle ejections.
func TestEjectionOrderAcrossDomains(t *testing.T) {
	var want []delivery
	for _, jobs := range domainCounts {
		var src *orderSource
		mk := func(n int) sim.Source {
			src = &orderSource{Synthetic: uniform(n, 0.02, 6)}
			return src
		}
		runParallelCase(t, core.EB, 1, 2, jobs, mk, false)
		if want == nil {
			want = src.log
			sameCycle := 0
			for i := 1; i < len(want); i++ {
				if want[i].t == want[i-1].t {
					sameCycle++
				}
			}
			if sameCycle == 0 {
				t.Fatalf("%d deliveries, none sharing a cycle: the run cannot show ejection order", len(want))
			}
			continue
		}
		if len(src.log) != len(want) {
			t.Fatalf("jobs=%d: %d deliveries, serial %d", jobs, len(src.log), len(want))
		}
		for i := range want {
			if src.log[i] != want[i] {
				t.Fatalf("jobs=%d: delivery %d is %+v, serial %+v", jobs, i, src.log[i], want[i])
			}
		}
	}
}

// TestDomainParallelEstimateIdentity runs the co-simulation estimate entry
// point at every domain count: per-transfer latencies of a contended burst
// must not depend on the decomposition.
func TestDomainParallelEstimateIdentity(t *testing.T) {
	net := snNetwork(t, 5, 4, core.LayoutSubgroup)
	n := net.N()
	var transfers []sim.Transfer
	for i := 0; i < 64; i++ {
		transfers = append(transfers, sim.Transfer{Src: (i * 7) % n, Dst: (i*13 + 5) % n, Flits: 2 + i%6})
	}
	cfg := sim.Config{
		Net:     net,
		Table:   minTable(t, net, 2),
		Buffers: core.Buffers{VCs: 2, Scheme: core.EB},
	}
	want, err := sim.EstimateLatencies(cfg, transfers, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range domainCounts[1:] {
		cfg.EngineJobs = jobs
		got, err := sim.EstimateLatencies(cfg, transfers, 0)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d: transfer %d latency %d, serial %d", jobs, i, got[i], want[i])
			}
		}
	}
}

// TestSkipAccounting pins the CyclesSkipped/CalendarPeak telemetry: nonzero
// on an idle workload (where the drain phase alone is thousands of dead
// cycles), exactly zero at saturation (active sets never empty, so the
// calendar never gets a skip), and exactly zero under Config.CycleStep.
func TestSkipAccounting(t *testing.T) {
	run := func(t *testing.T, mkSrc func(n int) sim.Source, drain int64, cycleStep bool) sim.EngineStats {
		cfg := engineConfig(t, core.EB, 1, 2, mkSrc, false)
		cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 2000, 20000, drain
		cfg.CycleStep = cycleStep
		s, _ := runCfg(t, cfg)
		return s.EngineStats()
	}
	t.Run("IdleSkips", func(t *testing.T) {
		st := run(t, func(n int) sim.Source {
			return &traffic.ReqReply{N: n, Window: 1, ReqFlits: 2, ReplyFlits: 6, Pattern: traffic.Uniform{N: n}}
		}, 4000, false)
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
		// A short drain keeps the saturated run bounded.
		st := run(t, func(n int) sim.Source { return uniform(n, 0.40, 6) }, 500, false)
		if st.CyclesSkipped != 0 {
			t.Fatalf("saturated run skipped %d cycles, want exactly 0", st.CyclesSkipped)
		}
		if st.CalendarPeak != 0 {
			t.Fatalf("saturated run sampled calendar peak %d, want 0 (no skip decisions)", st.CalendarPeak)
		}
	})
	t.Run("CycleStepNeverSkips", func(t *testing.T) {
		st := run(t, func(n int) sim.Source { return uniform(n, 0.002, 6) }, 4000, true)
		if st.CyclesSkipped != 0 || st.CalendarPeak != 0 {
			t.Fatalf("CycleStep run reported skip telemetry: %+v", st)
		}
	})
}
