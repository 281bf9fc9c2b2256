package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/routing"
	"repro/slimnoc"
	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// The traced run prices every layer from outside: it calls each layer's
// exported functions itself, one span per call, at the workload's operating
// point (workload.point). Three probe groups cover the stack — point
// (topo, routing, sim, the Run facade), figure (exp, campaign, store) and
// serve (estimator, cache, protocol, server) — and every traced run visits
// all three, spending most of its time in the group its own op belongs to.
// In each group the op is run twice over: plain, as the untraced workload
// runs it, and decomposed into explicit layer calls; their difference is the
// attribution residue and the tracing overhead.

// layerMetrics are the per-layer metrics, in BENCHMARK.json order.
var layerMetrics = []metricDef{
	{"topo.build_ms", "ms"},
	{"routing.compile_ms", "ms"},
	{"routing.compile_inline_ms", "ms"},
	{"routing.table_mb", "MiB"},
	{"routing.compile_compact_ms", "ms"},
	{"routing.table_compact_mb", "MiB"},
	{"sim.new_ms", "ms"},
	{"sim.loop_ms", "ms"},
	{"sim.cycles", "count"},
	{"sim.cycles_skipped", "count"},
	{"sim.delivered_flits", "count"},
	{"sim.skip_frac", "ratio"},
	{"sim.active_routers_avg", "count"},
	{"sim.packet_allocs", "count"},
	{"sim.ns_per_delivered_flit", "ns"},
	{"sim.ns_per_stepped_cycle", "ns"},
	{"sim.loop_ms_jobs2", "ms"},
	{"sim.loop_ms_cyclestep", "ms"},
	{"sim.loop_ms_compact", "ms"},
	{"slimnoc.run_ms", "ms"},
	{"slimnoc.unattributed_ms", "ms"},
	{"slimnoc.allocs_per_point", "count"},
	{"slimnoc.alloc_kb_per_point", "KiB"},
	{"slimnoc.spec_us", "us"},
	{"slimnoc.point_key_us", "us"},
	{"slimnoc.encode_us", "us"},
	{"slimnoc.decode_us", "us"},
	{"slimnoc.estimator_new_ms", "ms"},
	{"slimnoc.estimate_us", "us"},
	{"slimnoc.estimate_batch32_us", "us"},
	{"campaign.points", "count"},
	{"campaign.simulated", "count"},
	{"campaign.cached", "count"},
	{"campaign.point_ms_p50", "ms"},
	{"campaign.overhead_ms", "ms"},
	{"campaign.jobs2_speedup", "ratio"},
	{"store.open_ms", "ms"},
	{"store.get_us", "us"},
	{"store.put_us_p50", "us"},
	{"store.put_us_p99", "us"},
	{"store.file_kb", "KiB"},
	{"exp.manifest_ms", "ms"},
	{"exp.run_figure_ms", "ms"},
	{"exp.run_figure_warm_ms", "ms"},
	{"exp.render_ms", "ms"},
	{"serve.miss_us_p50", "us"},
	{"serve.miss_us_p99", "us"},
	{"serve.hit_us_p50", "us"},
	{"serve.hit_us_p99", "us"},
	{"serve.batch32_us_p50", "us"},
	{"serve.batch32_us_p99", "us"},
	{"serve.request_us_p99", "us"},
	{"serve.simulated", "count"},
	{"serve.hit_frac", "ratio"},
	{"serve.cache_key_us", "us"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_put_us", "us"},
	{"serve.protocol_us", "us"},
	{"serve.hello_ms", "ms"},
	{"serve.session_overhead_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// ownShare is the part of a traced run's time given to the probe group of
// the workload's own op; the other two groups split the rest.
const ownShare = 0.6

// layerRun is the state of one traced run.
type layerRun struct {
	w   *workload
	e   *env
	tr  *tracer
	log io.Writer
	out runOut
	ops int
}

func (l *layerRun) nextOp() int { l.ops++; return l.ops }

// expect counts one checked result.
func (l *layerRun) expect(ok bool, format string, args ...any) {
	l.out.attempted++
	if !ok {
		if l.out.failed++; l.out.failed <= 5 {
			fmt.Fprintf(l.log, "benchmark: traced check failed: "+format+"\n", args...)
		}
	}
}

// ms and us read the median sample of a span name.
func (l *layerRun) ms(name string) float64 { return l.tr.med(name) / 1e6 }
func (l *layerRun) us(name string) float64 { return l.tr.med(name) / 1e3 }

// repeat runs rep until the budget is spent, twice at least. Outside smoke
// runs a warm-up repeat comes first: its spans stay, its samples are dropped.
// It returns the number of measured repeats.
func (l *layerRun) repeat(budget time.Duration, rep func(r int) error) (int, error) {
	if !l.e.smoke {
		if err := rep(0); err != nil {
			return 0, err
		}
		l.tr.dropSamples()
	}
	start := time.Now()
	r := 0
	for ; r < l.e.atLeast(2) || time.Since(start) < budget; r++ {
		if err := rep(r); err != nil {
			return r, err
		}
	}
	return r, nil
}

// runTraced measures the per-layer metrics of one workload.
func runTraced(w *workload, e *env, seconds float64, log io.Writer) (runOut, *tracer, error) {
	l := &layerRun{w: w, e: e, tr: newTracer(), log: log}
	l.out.metrics = make(map[string]float64)
	groups := []struct {
		name string
		run  func(budget time.Duration) error
	}{{"point", l.pointGroup}, {"figure", l.figureGroup}, {"serve", l.serveGroup}}
	for _, g := range groups {
		share := (1 - ownShare) / float64(len(groups)-1)
		if g.name == w.group {
			share = ownShare
		}
		if err := g.run(time.Duration(share * seconds * float64(time.Second))); err != nil {
			return l.out, l.tr, fmt.Errorf("%s probes: %w", g.name, err)
		}
	}
	return l.out, l.tr, nil
}

// --- point group: topo, routing, sim, the Run facade ---

func (l *layerRun) pointGroup(budget time.Duration) error {
	ctx := context.Background()
	tr, m := l.tr, l.out.metrics
	specs := pointSpecs(l.w.point, l.e.seed)
	reps, err := l.repeat(budget, func(r int) error {
		op := l.nextOp()
		spec := specs[r%len(specs)].Normalized()
		if spec.Routing.Algorithm != "auto" {
			return fmt.Errorf("the decomposed op mirrors Run for auto routing only, not %q", spec.Routing.Algorithm)
		}
		vcs := spec.Routing.VCs
		var err error
		run := func(name string, parent int, s slimnoc.RunSpec, opts ...slimnoc.Option) (res *slimnoc.Result) {
			tr.time(name, op, parent, func() { res, err = slimnoc.Run(ctx, s, opts...) })
			return res
		}

		// The plain op, as the point workloads run it. It and its decomposed
		// twin below each start from a collected heap, so neither pays for
		// the other's garbage.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		plain := run("slimnoc.run", -1, spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		tr.add("slimnoc.allocs", float64(after.Mallocs-before.Mallocs))
		tr.add("slimnoc.alloc_kb", float64(after.TotalAlloc-before.TotalAlloc)/1024)
		want := digestResult(plain)

		// The same op decomposed into its layers. For "auto" routing and no
		// table, Run builds the path builder, compiles it eagerly and bakes
		// the ports in — without CompileRouteTable's dense/compact
		// selection, which is priced on its own below.
		var net *slimnoc.Network
		var kind slimnoc.Kind
		var table *slimnoc.RouteTable
		runtime.GC()
		root := tr.begin("point.op", op, -1)
		tr.time("topo.build", op, root, func() { net, kind, err = slimnoc.BuildNetwork(spec.Network) })
		if err != nil {
			return err
		}
		tr.time("routing.compile_inline", op, root, func() {
			var pb slimnoc.PathBuilder
			if pb, err = routing.NewRoutingFor(net, kind, vcs); err != nil {
				return
			}
			if table, err = routing.Compile(net.Nr, pb); err == nil {
				err = table.CompilePorts(net.Adj)
			}
		})
		if err != nil {
			return err
		}
		withNet := slimnoc.WithNetwork(net, kind)
		res := run("sim.run", root, spec, withNet, slimnoc.WithRouteTable(table))
		tr.end(root)
		if err != nil {
			return err
		}
		l.expect(digestResult(res) == want, "shared-table run differs from the plain run (slot %d)", r%len(specs))
		tr.add("sim.cycles", float64(res.Engine.Cycles))
		tr.add("sim.cycles_skipped", float64(res.Engine.CyclesSkipped))
		tr.add("sim.delivered_flits", float64(res.Metrics.Delivered*int64(spec.Traffic.PacketFlits)))
		tr.add("sim.active_routers", res.Engine.AvgActiveRouters)
		tr.add("sim.packet_allocs", float64(res.Engine.PacketAllocs))

		// The two table forms the facade can hand out, and sim.New from
		// outside: the same run cut down to three cycles.
		var compact *slimnoc.RouteTable
		tr.time("routing.compile", op, -1, func() {
			table, err = slimnoc.CompileRouteTable(net, kind, spec.Routing.Algorithm, vcs)
		})
		if err != nil {
			return err
		}
		tr.time("routing.compile_compact", op, -1, func() { compact, err = routing.CompileCompact(net, vcs) })
		if err != nil {
			return err
		}
		m["routing.table_mb"] = float64(table.MemBytes()) / (1 << 20)
		m["routing.table_compact_mb"] = float64(compact.MemBytes()) / (1 << 20)
		tiny := spec
		tiny.Sim.WarmupCycles, tiny.Sim.MeasureCycles, tiny.Sim.DrainCycles = 1, 1, 1
		if run("sim.new", -1, tiny, withNet, slimnoc.WithRouteTable(table)); err != nil {
			return err
		}

		// Fork prices: the same spec with one execution option changed.
		// Simulated statistics must not move.
		for _, fork := range []struct {
			name  string
			table *slimnoc.RouteTable
			extra []slimnoc.Option
		}{
			{"sim.run_jobs2", table, []slimnoc.Option{slimnoc.WithEngineJobs(2)}},
			{"sim.run_cyclestep", table, []slimnoc.Option{slimnoc.WithCycleStep()}},
			{"sim.run_compact", compact, nil},
		} {
			got := run(fork.name, -1, spec, append(fork.extra, withNet, slimnoc.WithRouteTable(fork.table))...)
			if err != nil {
				return err
			}
			l.expect(digestResult(got) == want, "%s changed the simulated statistics", fork.name)
		}

		// The facade's small change: spec handling, key, result encoding.
		var raw []byte
		var back slimnoc.Result
		tr.timeN("slimnoc.spec", op, 200, func(int) { err = spec.Normalized().Validate() })
		tr.timeN("slimnoc.point_key", op, 200, func(int) { _, err = slimnoc.PointKey(spec) })
		tr.timeN("slimnoc.encode", op, 50, func(int) { raw, err = json.Marshal(plain) })
		tr.timeN("slimnoc.decode", op, 50, func(int) { back = slimnoc.Result{}; err = json.Unmarshal(raw, &back) })
		if err != nil {
			return err
		}
		l.expect(digestResult(&back) == want, "Result JSON round trip changed the statistics")
		return nil
	})
	if err != nil {
		return err
	}

	simNew, simRun := tr.med("sim.new"), tr.med("sim.run")
	loop := simRun - simNew
	cycles, skipped, flits := tr.med("sim.cycles"), tr.med("sim.cycles_skipped"), tr.med("sim.delivered_flits")
	m["topo.build_ms"] = l.ms("topo.build")
	m["routing.compile_ms"] = l.ms("routing.compile")
	m["routing.compile_inline_ms"] = l.ms("routing.compile_inline")
	m["routing.compile_compact_ms"] = l.ms("routing.compile_compact")
	m["sim.new_ms"] = simNew / 1e6
	m["sim.loop_ms"] = loop / 1e6
	m["sim.loop_ms_jobs2"] = (tr.med("sim.run_jobs2") - simNew) / 1e6
	m["sim.loop_ms_cyclestep"] = (tr.med("sim.run_cyclestep") - simNew) / 1e6
	m["sim.loop_ms_compact"] = (tr.med("sim.run_compact") - simNew) / 1e6
	m["sim.cycles"] = cycles
	m["sim.cycles_skipped"] = skipped
	m["sim.delivered_flits"] = flits
	m["sim.skip_frac"] = skipped / cycles
	m["sim.active_routers_avg"] = tr.med("sim.active_routers")
	m["sim.packet_allocs"] = tr.med("sim.packet_allocs")
	m["sim.ns_per_delivered_flit"] = loop / flits
	m["sim.ns_per_stepped_cycle"] = loop / (cycles - skipped)
	m["slimnoc.run_ms"] = l.ms("slimnoc.run")
	m["slimnoc.unattributed_ms"] = l.ms("slimnoc.run") - l.ms("topo.build") - l.ms("routing.compile_inline") - simRun/1e6
	m["slimnoc.allocs_per_point"] = tr.med("slimnoc.allocs")
	m["slimnoc.alloc_kb_per_point"] = tr.med("slimnoc.alloc_kb")
	m["slimnoc.spec_us"] = l.us("slimnoc.spec")
	m["slimnoc.point_key_us"] = l.us("slimnoc.point_key")
	m["slimnoc.encode_us"] = l.us("slimnoc.encode")
	m["slimnoc.decode_us"] = l.us("slimnoc.decode")
	if l.w.group == "point" {
		m["trace.overhead_frac"] = tr.med("point.op")/tr.med("slimnoc.run") - 1
	}
	l.out.notes = append(l.out.notes, fmt.Sprintf("point probes: %d reps at %s rate %g", reps,
		l.w.point.Network.Preset+l.w.point.Network.Topology, l.w.point.Traffic.Rate))
	return nil
}

// --- figure group: exp, campaign, store ---

func (l *layerRun) figureGroup(budget time.Duration) error {
	tr, m := l.tr, l.out.metrics
	var fileKB float64
	counts := figureOut{}
	reps, err := l.repeat(budget, func(r int) error {
		op := l.nextOp()
		seed := l.e.seed + int64(r%figureSlots)

		// Cold, as figure-cold runs it (jobs = C).
		warmPath := l.e.file("probe-warm")
		cold, err := runFigure(warmPath, figureID, figureOptions(seed, l.e.c), tr, "figure.cold", op)
		if err != nil {
			return err
		}
		want := digestFigure(cold.run)

		// Cold at jobs = 1, timing the gaps between point emits.
		last := time.Now()
		gaps := slimnoc.WithOnPoint(func(slimnoc.PointResult) {
			now := time.Now()
			tr.add("campaign.point_gap", float64(now.Sub(last)))
			last = now
		})
		serialPath := l.e.file("probe-serial")
		serial, err := runFigure(serialPath, figureID, figureOptions(seed, 1), tr, "figure.cold_jobs1", op, gaps)
		os.Remove(serialPath)
		if err != nil {
			return err
		}
		l.expect(digestFigure(serial.run) == want, "jobs=1 and jobs=%d figures differ", l.e.c)

		// Warm, as figure-warm runs it, on the store the cold run filled.
		warm, err := runFigure(warmPath, figureID, figureOptions(seed, l.e.c), tr, "figure.warm", op)
		if err != nil {
			return err
		}
		l.expect(warm.fresh == 0, "warm figure simulated %d points", warm.fresh)
		l.expect(warm.markdown == cold.markdown && warm.csv == cold.csv, "warm report differs from the cold one")

		// Both ops again, decomposed into layer calls (jobs = 1).
		decompPath := l.e.file("probe-decomp")
		dig, keys, err := l.decomposedFigure("figure.decomposed_cold", op, decompPath, figureOptions(seed, 1))
		os.Remove(decompPath)
		if err != nil {
			return err
		}
		l.expect(dig == want, "decomposed cold figure differs from RunFigure's")
		if dig, _, err = l.decomposedFigure("figure.decomposed_warm", op, warmPath, figureOptions(seed, 1)); err != nil {
			return err
		}
		l.expect(dig == want, "decomposed warm figure differs from RunFigure's")

		// store.Get is too short for a span of its own.
		st, err := store.Open(warmPath)
		if err != nil {
			return err
		}
		tr.timeN("store.get", op, 20*len(keys), func(i int) { st.Get(keys[i%len(keys)]) })
		st.Close()
		if fi, err := os.Stat(warmPath); err == nil {
			fileKB = float64(fi.Size()) / 1024
		}
		os.Remove(warmPath)

		counts = cold
		if l.w.warmStore {
			counts = warm
		}
		return nil
	})
	if err != nil {
		return err
	}

	m["campaign.points"] = float64(counts.cached + counts.fresh)
	m["campaign.simulated"] = float64(counts.fresh)
	m["campaign.cached"] = float64(counts.cached)
	m["campaign.point_ms_p50"] = l.ms("campaign.point_gap")
	m["campaign.overhead_ms"] = l.ms("figure.cold_jobs1/exp.run_figure") - l.ms("figure.decomposed_cold/campaign.serial_loop")
	m["campaign.jobs2_speedup"] = tr.med("figure.cold_jobs1/exp.run_figure") / tr.med("figure.cold/exp.run_figure")
	m["store.open_ms"] = l.ms("figure.warm/store.open")
	m["store.get_us"] = l.us("store.get")
	m["store.put_us_p50"] = tr.pct("store.put", 0.50) / 1e3
	m["store.put_us_p99"] = tr.pct("store.put", 0.99) / 1e3
	m["store.file_kb"] = fileKB
	m["exp.manifest_ms"] = l.ms("figure.cold/exp.manifest")
	m["exp.run_figure_ms"] = l.ms("figure.cold/exp.run_figure")
	m["exp.run_figure_warm_ms"] = l.ms("figure.warm/exp.run_figure")
	m["exp.render_ms"] = l.ms("figure.cold/exp.render")
	if l.w.group == "figure" {
		plain, decomposed := "figure.cold_jobs1", "figure.decomposed_cold"
		if l.w.warmStore {
			plain, decomposed = "figure.warm", "figure.decomposed_warm"
		}
		m["trace.overhead_frac"] = tr.med(decomposed)/tr.med(plain) - 1
	}
	l.out.notes = append(l.out.notes, fmt.Sprintf(
		"figure probes: %d reps of %s; store.put percentiles over %d puts; campaign.jobs2_speedup base: jobs=1 %.3f ms, jobs=%d %.3f ms",
		reps, figureID, len(tr.samples["store.put"]), l.ms("figure.cold_jobs1/exp.run_figure"), l.e.c, l.ms("figure.cold/exp.run_figure")))
	return nil
}

// decomposedFigure is runFigure with Campaign.Run replaced by the serial
// loop it amounts to at jobs=1, every layer call in a span of its own: per
// point key, store Get, then either decode (hit) or build/compile on first
// use of a network, run, encode, Put (miss). It returns the figure digest
// and the point keys.
func (l *layerRun) decomposedFigure(tag string, op int, path string, o exp.Options) (string, []store.Key, error) {
	ctx := context.Background()
	tr := l.tr
	var err error
	root := tr.begin(tag, op, -1)
	defer tr.end(root)
	var st *store.Store
	tr.time(tag+"/store.open", op, root, func() { st, err = store.Open(path) })
	if err != nil {
		return "", nil, err
	}
	defer st.Close()
	var f exp.Figure
	tr.time(tag+"/exp.manifest", op, root, func() { f, err = exp.FigureByID(figureID, o) })
	if err != nil {
		return "", nil, err
	}

	type builtNet struct {
		net   *slimnoc.Network
		kind  slimnoc.Kind
		table *slimnoc.RouteTable
	}
	nets := make(map[string]*builtNet)
	var keys []store.Key
	run := exp.FigureRun{Figure: f}
	loop := tr.begin(tag+"/campaign.serial_loop", op, root)
	for _, sweep := range f.Sweeps {
		var points []slimnoc.RunSpec
		tr.time("slimnoc.sweep_points", op, loop, func() { points, err = sweep.Points() })
		if err != nil {
			return "", nil, err
		}
		results := make([]slimnoc.PointResult, len(points))
		for i, spec := range points {
			spec = spec.Normalized()
			pt := tr.begin("campaign.point", op, loop)
			var key store.Key
			tr.time("figure.point_key", op, pt, func() { key, err = slimnoc.PointKey(spec) })
			if err != nil {
				return "", nil, err
			}
			keys = append(keys, key)
			var raw json.RawMessage
			var hit bool
			tr.time("figure.store_get", op, pt, func() { raw, hit = st.Get(key) })
			res := new(slimnoc.Result)
			if hit {
				tr.time("figure.decode", op, pt, func() { err = json.Unmarshal(raw, res) })
				res.Spec = spec
			} else {
				nk := fmt.Sprintf("%v|%s|%d", spec.Network, spec.Routing.Algorithm, spec.Routing.VCs)
				b := nets[nk]
				if b == nil {
					b = new(builtNet)
					tr.time("figure.build", op, pt, func() { b.net, b.kind, err = slimnoc.BuildNetwork(spec.Network) })
					if err != nil {
						return "", nil, err
					}
					tr.time("figure.compile", op, pt, func() {
						b.table, err = slimnoc.CompileRouteTable(b.net, b.kind, spec.Routing.Algorithm, spec.Routing.VCs)
					})
					if err != nil {
						return "", nil, err
					}
					nets[nk] = b
				}
				tr.time("figure.sim_run", op, pt, func() {
					res, err = slimnoc.Run(ctx, spec, slimnoc.WithNetwork(b.net, b.kind), slimnoc.WithRouteTable(b.table))
				})
				if err != nil {
					return "", nil, err
				}
				tr.time("figure.encode", op, pt, func() { raw, err = json.Marshal(res) })
				if err == nil {
					tr.time("store.put", op, pt, func() { err = st.Put(key, raw) })
				}
			}
			tr.end(pt)
			if err != nil {
				return "", nil, err
			}
			results[i] = slimnoc.PointResult{Index: i, Spec: spec, Result: res, Cached: hit}
		}
		run.Results = append(run.Results, results)
	}
	tr.end(loop)
	tr.time(tag+"/exp.render", op, root, func() { _, _ = run.Markdown(), run.CSV() })
	tr.time(tag+"/store.close", op, root, func() { err = st.Close() })
	return digestFigure(run), keys, err
}

// --- serve group: estimator, response cache, protocol, server ---

func (l *layerRun) serveGroup(budget time.Duration) error {
	tr, m := l.tr, l.out.metrics
	engine := engineSpec(l.w.point)
	op := l.nextOp()
	start := time.Now()
	var err error

	// The layers under the server, called directly.
	var est *slimnoc.Estimator
	for r := 0; r < l.e.atLeast(3) && err == nil; r++ {
		tr.time("slimnoc.estimator_new", op, -1, func() { est, err = slimnoc.NewEstimator(engine) })
	}
	if err != nil {
		return err
	}
	g := newReqGen(l.e.seed, 0, est.Nodes())
	toTransfers := func(ws []serve.WireTransfer) []slimnoc.Transfer {
		ts := make([]slimnoc.Transfer, len(ws))
		for i, w := range ws {
			ts[i] = slimnoc.Transfer{Src: w.Src, Dst: w.Dst, Flits: w.Flits}
		}
		return ts
	}
	st, err := store.Open(l.e.file("probe-cache"))
	if err != nil {
		return err
	}
	defer os.Remove(st.Path())
	defer st.Close()
	cache := serve.NewCache(st)
	type entry struct {
		key     store.Key
		results []slimnoc.EstimateResult
	}
	var entries []entry
	// Singles until a sixth of the budget is gone, 20 at least.
	for i := 0; i < l.e.atLeast(20) || (i < 400 && time.Since(start) < budget/6); i++ {
		ts := toTransfers([]serve.WireTransfer{g.freshTransfer()})
		var en entry
		tr.time("slimnoc.estimate", op, -1, func() { en.results, err = est.Estimate(ts) })
		if err != nil {
			return err
		}
		tr.time("serve.cache_key", op, -1, func() { en.key, err = cache.Key(est.Spec(), ts) })
		if err != nil {
			return err
		}
		tr.time("serve.cache_put", op, -1, func() { err = cache.Put(en.key, en.results) })
		if err != nil {
			return err
		}
		entries = append(entries, en)
	}
	for i := 0; i < l.e.atLeast(5) || (i < 50 && time.Since(start) < budget/4); i++ {
		b := g.next()
		for b.kind != kindBatch {
			b = g.next()
		}
		tr.time("slimnoc.estimate_batch32", op, -1, func() { _, err = est.Estimate(toTransfers(b.transfers)) })
		if err != nil {
			return err
		}
	}
	tr.timeN("serve.cache_get", op, 10*len(entries), func(i int) {
		en := entries[i%len(entries)]
		got, ok := cache.Get(en.key)
		if i < len(entries) {
			l.expect(ok && reflect.DeepEqual(got, en.results), "cache round trip changed an estimate")
		}
	})
	src, dst := 0, 1
	req := serve.Request{Op: serve.OpEstimate, ID: 7, Src: &src, Dst: &dst, Flits: 4}
	resp := serve.Response{Op: serve.OpEstimate, ID: 7, OK: true, Result: &entries[0].results[0]}
	tr.timeN("serve.protocol", op, 500, func(int) {
		var rq serve.Request
		var rs serve.Response
		line, _ := json.Marshal(req)
		_ = json.Unmarshal(line, &rq)
		line, _ = json.Marshal(resp)
		err = json.Unmarshal(line, &rs)
	})
	if err != nil {
		return err
	}

	// The server itself: hello on a fresh server builds the engine.
	var inst *serveInst
	for r := 0; r < l.e.atLeast(3); r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		if inst, err = newServeInst(l.e, engine); err != nil {
			return err
		}
		tr.add("serve.hello", float64(inst.hello))
	}
	defer inst.close()
	chk := &checker{ref: make(map[int]string)}
	for s := 0; s < inst.sessions(); s++ {
		for i := 0; i < 50; i++ {
			if out := inst.op(s, i); out.err != nil {
				return out.err
			}
		}
	}
	// The mixed closed loop, in slices that alternate between untraced and
	// one span per request, so that drift of the machine during the loop does
	// not pass for tracing overhead; servePinned keeps ops out of the
	// per-session slots.
	const slices = 6
	slice := (budget - time.Since(start)) / slices
	var plainUs, tracedUs []float64
	before := inst.srv.Stats()
	for i := 0; i < slices; i++ {
		traced := i%2 == 1
		var sliceTracer *tracer
		if traced {
			sliceTracer = tr // its spans feed the per-kind samples
		}
		for _, sess := range timedSection(inst, servePinned, slice, 0, chk, l.log, sliceTracer).samples {
			for _, s := range sess {
				l.expect(!s.bad, "serve request failed")
				if traced {
					tracedUs = append(tracedUs, float64(s.lat)/1e3)
				} else {
					plainUs = append(plainUs, float64(s.lat)/1e3)
					tr.add(kindSpans[s.kind], float64(s.lat))
				}
			}
		}
	}
	after := inst.srv.Stats()
	all := sorted(append(plainUs, tracedUs...))

	m["slimnoc.estimator_new_ms"] = l.ms("slimnoc.estimator_new")
	m["slimnoc.estimate_us"] = l.us("slimnoc.estimate")
	m["slimnoc.estimate_batch32_us"] = l.us("slimnoc.estimate_batch32")
	for _, name := range kindSpans {
		m[name+"_us_p50"] = tr.pct(name, 0.50) / 1e3
		m[name+"_us_p99"] = tr.pct(name, 0.99) / 1e3
	}
	m["serve.request_us_p99"] = percentile(all, 0.99)
	m["serve.simulated"] = float64(after.Simulated - before.Simulated)
	m["serve.hit_frac"] = float64(after.CacheHits-before.CacheHits) / float64(after.Requests-before.Requests)
	m["serve.cache_key_us"] = l.us("serve.cache_key")
	m["serve.cache_get_us"] = l.us("serve.cache_get")
	m["serve.cache_put_us"] = l.us("serve.cache_put")
	m["serve.protocol_us"] = l.us("serve.protocol")
	m["serve.hello_ms"] = l.ms("serve.hello")
	m["serve.session_overhead_us"] = m["serve.miss_us_p50"] - m["serve.cache_key_us"] - m["slimnoc.estimate_us"] -
		m["serve.cache_put_us"] - m["serve.protocol_us"]
	if l.w.group == "serve" {
		// Means, not medians: the latency mix is multimodal and its median
		// sits on the edge between two modes.
		m["trace.overhead_frac"] = mean(tracedUs)/mean(plainUs) - 1
	}
	l.out.notes = append(l.out.notes, fmt.Sprintf(
		"serve probes: %d sessions, %d requests (miss %d, hit %d, batch32 %d samples behind the percentiles); serve.hit_frac base: %d hits of %d requests",
		inst.sessions(), len(all), len(tr.samples[kindSpans[kindMiss]]), len(tr.samples[kindSpans[kindHit]]),
		len(tr.samples[kindSpans[kindBatch]]), after.CacheHits-before.CacheHits, after.Requests-before.Requests))
	return nil
}
