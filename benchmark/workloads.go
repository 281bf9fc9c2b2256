package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/slimnoc"
	"repro/slimnoc/serve"
	"repro/slimnoc/store"
)

// env is what a workload gets from the harness.
type env struct {
	seed  int64
	c     int    // concurrency cap: campaign jobs and serve sessions
	dir   string // scratch directory for store files, inside the working directory
	files int
	// child is the suite's running child process, for signal forwarding.
	child atomic.Pointer[os.Process]
	// smoke cuts every repeat count to one: the plumbing runs, nothing is
	// measured well.
	smoke bool
}

// atLeast is a repeat count's floor: n, or 1 in a smoke run.
func (e *env) atLeast(n int) int {
	if e.smoke {
		return 1
	}
	return n
}

// file returns a fresh store path in the scratch directory.
func (e *env) file(prefix string) string {
	e.files++
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d.jsonl", prefix, e.files))
}

// opOut is the outcome of one op: the digest of its simulated statistics,
// the reference slot the digest belongs to (-1 for none), and the request
// kind (serve-mixed only).
type opOut struct {
	slot   int
	digest string
	kind   reqKind
	err    error
}

// instance is one set-up workload. op(s, i) runs session s's i-th op; calls
// of one session are sequential with increasing i, sessions run concurrently.
type instance interface {
	sessions() int
	op(s, i int) opOut
	close() error
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	why  string
	// group is the layer-probe group (layers.go) that contains this
	// workload's own op; a traced run spends most of its time there.
	group string
	// point is the operating point at which a traced run prices the layers:
	// the op's own spec for point workloads, a representative one otherwise.
	point slimnoc.RunSpec
	// warmStore makes the figure probes trace the warm op instead of the cold.
	warmStore bool
	// warm is the number of untimed ops per session that end set-up.
	warm int
	// rssAt, when not 0, is the timed-op count at which peak RSS is read.
	// serve-mixed needs it: its cache grows with every miss, so RSS at the
	// end of a fixed time would rise with throughput.
	rssAt int64
	setup func(e *env, w *workload) (instance, error)
}

const figureID = "fig19"

func snPoint(preset string, rate float64) slimnoc.RunSpec {
	return slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Preset: preset},
		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: rate},
		SMART:   true,
		Sim:     slimnoc.QuickSim(),
	}
}

func scalePoint() slimnoc.RunSpec {
	return slimnoc.RunSpec{
		Network: slimnoc.NetworkSpec{Topology: "sn", Q: 16, Conc: 8, Layout: "subgr"},
		Traffic: slimnoc.TrafficSpec{Pattern: "rnd", Rate: 0.008},
		SMART:   true,
		Sim:     slimnoc.SimSpec{WarmupCycles: 200, MeasureCycles: 800, DrainCycles: 1000},
	}
}

// workloads is the benchmark's fixed set; names, order and reasons mirror
// BENCHMARK.json (TestBenchmarkJSONMatches).
var workloads = []*workload{
	{
		name:  "point-lowload",
		why:   "cold slimnoc.Run, sn_subgr_200 at rate 0.008: traffic generation, per-cycle fixed cost and calendar skipping dominate; routers idle",
		group: "point", point: snPoint("sn_subgr_200", 0.008), warm: 12, setup: setupPoint,
	},
	{
		name:  "point-highload",
		why:   "same at rate 0.40 (saturated): router and link phases are ~98% of the op; the workload for every engine-core change",
		group: "point", point: snPoint("sn_subgr_200", 0.40), warm: 1, setup: setupPoint,
	},
	{
		name:  "scale-4k",
		why:   "cold slimnoc.Run on SN q=16 (512 routers, N=4096), short window: route construction + sim.New are about half the op; table bytes set peak RSS",
		group: "point", point: scalePoint(), warm: 1, setup: setupPoint,
	},
	{
		name:  "figure-cold",
		why:   "snrepro path on a fresh store: fig19 quick (16 points, N=54) through campaign pool, net/table cache, 16 fsynced store Puts, report render",
		group: "figure", point: snPoint("sn_subgr_54", 0.06), warm: 1, setup: setupFigureCold,
	},
	{
		name:  "figure-warm",
		why:   "same figure against a filled store: store replay, PointKey, Result decode, render; simulates nothing, so engine changes must not move it",
		group: "figure", point: snPoint("sn_subgr_54", 0.06), warmStore: true, warm: 3, setup: setupFigureWarm,
	},
	{
		name:  "serve-mixed",
		why:   "closed loop, C sessions on one snserve server (engine sn_gr_1296): 48% fresh estimates (episode + cache Put), 40% hot-set hits, 12% batches of 32",
		group: "serve", point: snPoint("sn_gr_1296", 0.06), warm: 200, rssAt: 8192, setup: setupServe,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- point-lowload, point-highload, scale-4k ---

type pointInst struct{ specs []slimnoc.RunSpec }

func setupPoint(e *env, w *workload) (instance, error) {
	return &pointInst{specs: pointSpecs(w.point, e.seed)}, nil
}

func (p *pointInst) sessions() int { return 1 }
func (p *pointInst) close() error  { return nil }

func (p *pointInst) op(_, i int) opOut {
	slot := i % len(p.specs)
	res, err := slimnoc.Run(context.Background(), p.specs[slot])
	if err != nil {
		return opOut{err: err}
	}
	return opOut{slot: slot, digest: digestResult(res)}
}

// --- figure-cold, figure-warm ---

func figureOptions(seed int64, jobs int) exp.Options {
	return exp.Options{Quick: true, Seed: seed, Jobs: jobs}
}

// figureOut is what one pass over the figure leaves behind.
type figureOut struct {
	run           exp.FigureRun
	markdown, csv string
	cached, fresh int
}

// runFigure is the snrepro path for one figure: open the store file, look
// the figure up, run it through the store, render both reports, close. Under
// a tracer every step is a child span of one span named tag.
func runFigure(path, id string, o exp.Options, tr *tracer, tag string, op int, copts ...slimnoc.CampaignOption) (figureOut, error) {
	var out figureOut
	var err error
	root := tr.begin(tag, op, -1)
	defer tr.end(root)
	var st *store.Store
	tr.time(tag+"/store.open", op, root, func() { st, err = store.Open(path) })
	if err != nil {
		return out, err
	}
	defer st.Close()
	var f exp.Figure
	tr.time(tag+"/exp.manifest", op, root, func() { f, err = exp.FigureByID(id, o) })
	if err != nil {
		return out, err
	}
	tr.time(tag+"/exp.run_figure", op, root, func() {
		out.run, err = exp.RunFigure(context.Background(), f, o, append(copts, slimnoc.WithStore(st))...)
	})
	if err != nil {
		return out, err
	}
	if err := firstPointError(out.run); err != nil {
		return out, err
	}
	tr.time(tag+"/exp.render", op, root, func() { out.markdown, out.csv = out.run.Markdown(), out.run.CSV() })
	out.cached, out.fresh = out.run.CachedCount()
	tr.time(tag+"/store.close", op, root, func() { err = st.Close() })
	return out, err
}

func firstPointError(run exp.FigureRun) error {
	for _, sweep := range run.Results {
		for _, p := range sweep {
			if p.Err != nil {
				return fmt.Errorf("point %s: %w", p.Spec.Name, p.Err)
			}
		}
	}
	return nil
}

type figureColdInst struct{ e *env }

func setupFigureCold(e *env, _ *workload) (instance, error) { return &figureColdInst{e: e}, nil }

func (f *figureColdInst) sessions() int { return 1 }
func (f *figureColdInst) close() error  { return nil }

func (f *figureColdInst) op(_, i int) opOut {
	slot := i % figureSlots
	path := f.e.file("cold")
	defer os.Remove(path)
	out, err := runFigure(path, figureID, figureOptions(f.e.seed+int64(slot), f.e.c), nil, "", 0)
	if err != nil {
		return opOut{err: err}
	}
	if out.cached != 0 {
		return opOut{err: fmt.Errorf("fresh store served %d points", out.cached)}
	}
	return opOut{slot: slot, digest: digestFigure(out.run)}
}

// warmFill are the figures the warm store holds: the one the op reads plus
// three it does not, so Open replays more records than the op needs.
var warmFill = []string{figureID, "fig10b", "fig18", "tab6"}

type figureWarmInst struct {
	e    *env
	path string
	want figureOut // the cold run that filled the store
}

func setupFigureWarm(e *env, _ *workload) (instance, error) {
	f := &figureWarmInst{e: e, path: e.file("warm")}
	for _, id := range warmFill {
		out, err := runFigure(f.path, id, figureOptions(e.seed, e.c), nil, "", 0)
		if err != nil {
			return nil, fmt.Errorf("filling store with %s: %w", id, err)
		}
		if id == figureID {
			f.want = out
		}
	}
	return f, nil
}

func (f *figureWarmInst) sessions() int { return 1 }
func (f *figureWarmInst) close() error  { return os.Remove(f.path) }

func (f *figureWarmInst) op(_, _ int) opOut {
	out, err := runFigure(f.path, figureID, figureOptions(f.e.seed, f.e.c), nil, "", 0)
	if err != nil {
		return opOut{err: err}
	}
	if out.fresh != 0 {
		return opOut{err: fmt.Errorf("warm store simulated %d points", out.fresh)}
	}
	// Cold result vs store round trip: the reports must be the same bytes.
	if out.markdown != f.want.markdown || out.csv != f.want.csv {
		return opOut{err: fmt.Errorf("warm report differs from the cold one")}
	}
	return opOut{slot: 0, digest: digestFigure(out.run)}
}

// --- serve-mixed ---

// servePinned is how many leading requests of each session have a reference
// slot of their own (hot-set requests always do: one slot per hot entry).
const servePinned = 64

type serveInst struct {
	st      *store.Store
	srv     *serve.Server
	clients []*serve.Client
	gens    []*reqGen
	served  chan error // one ServeConn result per started session
	started int
	hello   time.Duration // the first session's handshake, engine build included
}

func engineSpec(point slimnoc.RunSpec) slimnoc.RunSpec {
	return slimnoc.RunSpec{Network: point.Network, SMART: point.SMART}
}

func setupServe(e *env, w *workload) (instance, error) {
	return newServeInst(e, engineSpec(w.point))
}

// newServeInst starts one server (pool of C slots, cache on a fresh store)
// and C sessions to it over in-process pipes; the first hello builds the
// engine.
func newServeInst(e *env, engine slimnoc.RunSpec) (*serveInst, error) {
	st, err := store.Open(e.file("serve"))
	if err != nil {
		return nil, err
	}
	si := &serveInst{
		st:     st,
		srv:    serve.NewServer(serve.WithPool(serve.NewPool(e.c)), serve.WithCache(serve.NewCache(st))),
		served: make(chan error, e.c), // one send per session, never blocks
	}
	for s := 0; s < e.c; s++ {
		near, far := net.Pipe()
		si.started++
		go func() { si.served <- si.srv.ServeConn(context.Background(), far) }()
		start := time.Now()
		c, err := serve.NewClient(near, engine)
		if s == 0 {
			si.hello = time.Since(start)
		}
		if err != nil {
			near.Close()
			si.close()
			return nil, err
		}
		si.clients = append(si.clients, c)
	}
	for s := range si.clients {
		si.gens = append(si.gens, newReqGen(e.seed, s, si.clients[0].Network().Nodes))
	}
	return si, nil
}

func (si *serveInst) sessions() int { return len(si.clients) }

func (si *serveInst) op(s, i int) opOut {
	req := si.gens[s].next()
	out := opOut{kind: req.kind, slot: -1}
	var results []slimnoc.EstimateResult
	if req.kind == kindBatch {
		results, out.err = si.clients[s].Batch(req.transfers)
	} else {
		t := req.transfers[0]
		var r slimnoc.EstimateResult
		r, out.err = si.clients[s].EstimateFlits(t.Src, t.Dst, t.Flits)
		results = []slimnoc.EstimateResult{r}
	}
	if out.err != nil {
		return out
	}
	// Hit reply vs miss reply: every use of a hot entry shares one slot.
	switch {
	case req.kind == kindHit:
		out.slot = req.hot
	case i < servePinned:
		out.slot = hotSet + s*servePinned + i
	}
	out.digest = digestEstimates(results)
	return out
}

// close ends every session, waits for the server side of each, and removes
// the cache file.
func (si *serveInst) close() error {
	var first error
	for _, c := range si.clients {
		c.Close()
	}
	// A session whose client never came up (hello failed) had its pipe
	// closed by the caller, so its ServeConn returns too.
	for s := 0; s < si.started; s++ {
		if err := <-si.served; err != nil && first == nil {
			first = err
		}
	}
	if err := si.st.Close(); err != nil && first == nil {
		first = err
	}
	if err := os.Remove(si.st.Path()); err != nil && first == nil {
		first = err
	}
	return first
}
