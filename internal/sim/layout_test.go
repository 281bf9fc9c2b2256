// Layout and footprint pins: the engine's per-VC slabs hold flits, so the
// flit's width and whether it holds a pointer set how many bytes New
// allocates and whether the garbage collector scans them.

package sim

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// hasPointer reports whether values of type t hold a pointer the garbage
// collector must trace.
func hasPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointer(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// TestFlitLayout pins the sizes the slabs and wheels are built on: a 12-byte
// flit and a 20-byte arrival with no pointer in either, so the input,
// front and stall slabs and the arrival and ejection wheels are never
// scanned, and a packet that fits the 64-byte allocation size class.
func TestFlitLayout(t *testing.T) {
	if n := unsafe.Sizeof(flit{}); n != 12 {
		t.Errorf("flit is %d bytes, want 12", n)
	}
	if n := unsafe.Sizeof(arrival{}); n != 20 {
		t.Errorf("arrival is %d bytes, want 20", n)
	}
	if n := unsafe.Sizeof(packet{}); n > 64 {
		t.Errorf("packet is %d bytes, want at most 64", n)
	}
	for _, v := range []any{flit{}, arrival{}} {
		if typ := reflect.TypeOf(v); hasPointer(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// TestNewFootprint pins the bytes New allocates on a 200-node and a
// 4096-node Slim NoC (edge buffers, 2 VCs, route table compiled beforehand)
// at upper bounds about 1 KiB above the values measured with 12-byte flits:
// 113.6 and 3131.9 KiB (16-byte flits and int64 output owners took 127.3
// and 3707.9 KiB). A change that widens the per-VC state shows up here as
// bytes, not as a timing.
func TestNewFootprint(t *testing.T) {
	for _, tc := range []struct {
		name     string
		q, p     int
		maxBytes uint64
	}{
		{"sn_subgr_200", 5, 4, 115 << 10},
		{"sn_q16_conc8_subgr", 16, 8, 3133 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sn, err := core.New(core.Params{Q: tc.q, P: tc.p})
			if err != nil {
				t.Fatal(err)
			}
			net, err := sn.Network(core.LayoutSubgroup, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Net: net, Table: minTable(t, net, 2), Buffers: core.Buffers{VCs: 2},
				Traffic: &bernoulliSource{n: net.N(), flits: 6}, EngineJobs: 1}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := New(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(s)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("New allocated %d bytes (%.1f KiB) for %d routers, %d nodes", got, float64(got)/1024, net.Nr, net.N())
			if got > tc.maxBytes {
				t.Errorf("New allocated %d bytes, over the pinned %d", got, tc.maxBytes)
			}
		})
	}
}
