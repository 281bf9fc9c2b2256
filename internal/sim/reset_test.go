// Tests for Sim.reset and the reusable episode engine built on it: a reset
// Sim must equal a freshly built one field by field, and a long-lived engine
// must answer every episode the way a fresh engine does.

package sim

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topo"
)

// resetExempt names the fields reset does not return to New's values on
// purpose: the packet directory and freelist and the central-buffer
// freelists (recycled objects are reinitialised when taken;
// TestResetEqualsFresh checks the directory apart).
//
// The input and stall slabs are compared apart, in simDiff: only what their
// queues hold is state.
var resetExempt = map[string]bool{"pkts": true, "pktFree": true, "cbPool": true, "inBuf": true, "stallBuf": true}

var streamType = reflect.TypeOf(rng.Stream{})

// stateDiff walks a and b in lockstep and records every path at which they
// differ. Slices compare by length and elements, so an empty slice that kept
// its capacity equals a nil one; funcs compare by nil-ness; shared pointers
// (the network, the route table) short-circuit.
func stateDiff(t *testing.T, path string, a, b reflect.Value, seen map[[2]uintptr]bool, diffs *[]string) {
	add := func(format string, args ...any) {
		*diffs = append(*diffs, path+": "+fmt.Sprintf(format, args...))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				add("nil %v vs nil %v", a.IsNil(), b.IsNil())
			}
			return
		}
		if a.Kind() == reflect.Interface {
			if a.Elem().Type() != b.Elem().Type() {
				add("dynamic type %v vs %v", a.Elem().Type(), b.Elem().Type())
				return
			}
		} else {
			key := [2]uintptr{a.Pointer(), b.Pointer()}
			if key[0] == key[1] || seen[key] {
				return
			}
			seen[key] = true
		}
		stateDiff(t, path, a.Elem(), b.Elem(), seen, diffs)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			add("len %d vs %d", a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			stateDiff(t, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), seen, diffs)
		}
	case reflect.Struct:
		if a.Type() == streamType {
			return // compared by what it yields, in simDiff
		}
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if resetExempt[name] {
				continue
			}
			stateDiff(t, path+"."+name, a.Field(i), b.Field(i), seen, diffs)
		}
	case reflect.Func:
		if a.IsNil() != b.IsNil() {
			add("nil %v vs nil %v", a.IsNil(), b.IsNil())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			add("%v vs %v", a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			add("%d vs %d", a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			add("%d vs %d", a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if a.Float() != b.Float() {
			add("%v vs %v", a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			add("%q vs %q", a.String(), b.String())
		}
	default:
		t.Fatalf("%s: stateDiff cannot compare kind %v; teach it, or exempt the field by name with a reason", path, a.Kind())
	}
}

func simDiff(t *testing.T, a, b *Sim) []string {
	var diffs []string
	stateDiff(t, "Sim", reflect.ValueOf(a), reflect.ValueOf(b), map[[2]uintptr]bool{}, &diffs)
	// Seed only records the seed, and the words of the sequence a reseeded
	// stream was on before stay behind as dead storage until its first draw:
	// two streams are equal when they yield the same, whatever they hold.
	sa, sb := *a.rng, *b.rng
	for i := 0; i < 4; i++ {
		if x, y := sa.Uint64(), sb.Uint64(); x != y {
			diffs = append(diffs, fmt.Sprintf("Sim.rng: draw %d ahead is %d vs %d", i, x, y))
		}
	}
	// Likewise a slab is dead storage outside its queues' live windows,
	// which reset empties without clearing: compare what the queues hold.
	// Lengths and heads are ordinary fields, compared above.
	seen := map[[2]uintptr]bool{}
	for slot, n := range a.inLen {
		for i := int32(0); i < min(n, b.inLen[slot])-1; i++ {
			fa := a.inBuf[slabPos(a.inOff[slot], a.inHead[slot], i, a.inCap[slot]-1)]
			fb := b.inBuf[slabPos(b.inOff[slot], b.inHead[slot], i, b.inCap[slot]-1)]
			stateDiff(t, fmt.Sprintf("Sim.inBuf[slot %d, flit %d]", slot, i), reflect.ValueOf(fa), reflect.ValueOf(fb), seen, &diffs)
		}
	}
	for lane := range a.stall {
		qa, qb := a.stall[lane], b.stall[lane]
		for i := int32(0); i < min(qa.n, qb.n); i++ {
			fa := a.stallBuf[slabPos(qa.off, qa.head, i, qa.size)]
			fb := b.stallBuf[slabPos(qb.off, qb.head, i, qb.size)]
			stateDiff(t, fmt.Sprintf("Sim.stallBuf[lane %d, flit %d]", lane, i), reflect.ValueOf(fa), reflect.ValueOf(fb), seen, &diffs)
		}
	}
	return diffs
}

func resetTestNet(t testing.TB) *topo.Network {
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

func randomBatch(rng *rand.Rand, nodes, n int) []Transfer {
	b := make([]Transfer, n)
	for i := range b {
		b[i] = Transfer{Src: rng.Intn(nodes), Dst: rng.Intn(nodes), Flits: 1 + rng.Intn(8)}
	}
	return b
}

var resetSchemes = []struct {
	name   string
	scheme core.Scheme
}{{"eb", core.EB}, {"el", core.EL}, {"cbr", core.CBR}}

// resetTables returns the minimal routes' table compiled two ways: through
// the builder (routing.NewTable) and straight from the sweep
// (CompileCompact).
// The row labels compact=false/true name the two constructions; since grid
// and minimal routes share one table form, both are the same bytes.
func resetTables(t *testing.T, net *topo.Network) (dense, compact *routing.RouteTable) {
	t.Helper()
	compact, err := routing.CompileCompact(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	dense, err = routing.NewTable(net, routing.Kind{Class: routing.ClassGeneric}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return dense, compact
}

// ugalRow is the one configuration that draws from the engine RNG (UGAL picks
// a random intermediate for every packet; static routes never draw), so it is
// the row that notices a reset that does not reseed.
func ugalRow(net *topo.Network) Config {
	return Config{Net: net, Adaptive: &UGAL{}, Buffers: core.Buffers{VCs: 4}, Seed: 7}
}

// TestResetEqualsFresh is the contract behind engine reuse: after any
// episode — delivered in full, or cut off by the watchdog with flits on
// every kind of queue — reset leaves the Sim equal to what New returns, field
// by field. The walk covers every field of Sim and everything reachable from
// it, so a mutable field added later and forgotten in reset fails here.
func TestResetEqualsFresh(t *testing.T) {
	net := resetTestNet(t)
	dense, compact := resetTables(t, net)
	rows := map[string]Config{"eb/ugal": ugalRow(net)}
	for _, sc := range resetSchemes {
		for _, jobs := range []int{0, 4} {
			for i, tab := range []*routing.RouteTable{dense, compact} {
				rows[fmt.Sprintf("%s/jobs%d/compact=%v", sc.name, jobs, i == 1)] =
					Config{Net: net, Table: tab, Buffers: core.Buffers{VCs: 2, Scheme: sc.scheme}, EngineJobs: jobs, Seed: 7}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		cfg := rows[name]
		t.Run(name, func(t *testing.T) {
			e, err := NewEpisodeEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewEpisodeEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch := randomBatch(rand.New(rand.NewSource(int64(len(name)))), net.N(), 300)
			for _, maxCycles := range []int64{0, 12} {
				_, err := e.Latencies(batch, maxCycles)
				if (err != nil) != (maxCycles != 0) {
					t.Fatalf("maxCycles %d: err = %v", maxCycles, err)
				}
				if len(simDiff(t, e.s, fresh.s)) == 0 {
					t.Fatalf("maxCycles %d: a loaded episode left the engine equal to a fresh one; the comparison sees nothing", maxCycles)
				}
				stranded := len(e.s.pkts) - len(e.s.pktFree)
				e.s.reset()
				// The packets an episode left in flight leave the directory.
				if len(e.s.pkts) != len(e.s.pktFree) || (maxCycles != 0) != (stranded > 0) {
					t.Fatalf("maxCycles %d: %d packets stranded in flight; after reset the directory holds %d, the freelist %d",
						maxCycles, stranded, len(e.s.pkts), len(e.s.pktFree))
				}
				for _, ref := range e.s.pktFree {
					if e.s.pkts[ref].ref != ref {
						t.Fatalf("maxCycles %d: freelisted packet at directory slot %d has ref %d", maxCycles, ref, e.s.pkts[ref].ref)
					}
				}
				if diffs := simDiff(t, e.s, fresh.s); len(diffs) > 0 {
					if len(diffs) > 12 {
						diffs = append(diffs[:12], fmt.Sprintf("... and %d more", len(diffs)-12))
					}
					t.Fatalf("maxCycles %d: reset state differs from a fresh engine at:\n  %s", maxCycles, strings.Join(diffs, "\n  "))
				}
			}
		})
	}
}

// TestEpisodeEngineReuse runs random episode sequences on one long-lived
// engine — batches of every size, episodes the watchdog cuts off followed by
// normal ones — and requires each answer, errors included, to equal
// EstimateLatencies on an engine built for that call.
func TestEpisodeEngineReuse(t *testing.T) {
	net := resetTestNet(t)
	dense, _ := resetTables(t, net)
	episodes := 400
	if testing.Short() {
		episodes = 80
	}
	// Rows with domain workers, and the adaptive row (which rebuilds its
	// minimal paths for every fresh reference engine), run a quarter of the
	// episodes; the serial static rows carry the volume.
	rows := map[string]Config{"eb/ugal": ugalRow(net)}
	for _, sc := range resetSchemes {
		for _, h := range []int{1, 9} {
			for _, jobs := range []int{0, 3} {
				rows[fmt.Sprintf("%s/H%d/jobs%d", sc.name, h, jobs)] =
					Config{Net: net, Table: dense, Buffers: core.Buffers{VCs: 2, Scheme: sc.scheme, H: h}, EngineJobs: jobs}
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rows)) {
		cfg := rows[name]
		t.Run(name, func(t *testing.T) {
			e, err := NewEpisodeEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(name) + cfg.H)))
			n := episodes
			if cfg.EngineJobs > 0 || cfg.Adaptive != nil {
				n /= 4
			}
			cut := 0
			for ep := 0; ep < n; ep++ {
				size := 1 + rng.Intn(4)
				if rng.Intn(4) == 0 {
					size = 20 + rng.Intn(100)
				}
				batch := randomBatch(rng, net.N(), size)
				maxCycles := int64(0)
				if rng.Intn(5) == 0 {
					maxCycles = 4 + int64(rng.Intn(12)) // below most delivery times: the watchdog fires mid-flight
				}
				got, gotErr := e.Latencies(batch, maxCycles)
				want, wantErr := EstimateLatencies(cfg, batch, maxCycles)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("episode %d: reused engine error %v, fresh engine error %v", ep, gotErr, wantErr)
				}
				if gotErr != nil {
					cut++
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("episode %d (batch of %d, maxCycles %d): reused engine %v, fresh engine %v", ep, size, maxCycles, got, want)
				}
			}
			if cut == 0 || cut == n {
				t.Fatalf("%d of %d episodes were cut off; the sequence must mix aborted and completed episodes", cut, n)
			}
		})
	}
}
