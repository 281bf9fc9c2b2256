package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCanonicalSortsKeysAndPreservesNumbers(t *testing.T) {
	got, err := canonicalizeJSON([]byte(`{"b": 0.24, "a": {"z": 1e3, "y": [1, 2.50, -0]}, "c": "x"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":{"y":[1,2.50,-0],"z":1e3},"b":0.24,"c":"x"}`
	if string(got) != want {
		t.Errorf("canonical = %s, want %s", got, want)
	}
}

// TestCanonicalFieldOrderIndependent pins the property content addressing
// relies on: two structs with the same fields in different declaration
// order canonicalize identically.
func TestCanonicalFieldOrderIndependent(t *testing.T) {
	type ab struct {
		A int     `json:"a"`
		B float64 `json:"b"`
	}
	type ba struct {
		B float64 `json:"b"`
		A int     `json:"a"`
	}
	x, err := Canonical(ab{A: 7, B: 0.06})
	if err != nil {
		t.Fatal(err)
	}
	y, err := Canonical(ba{B: 0.06, A: 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(x) != string(y) {
		t.Errorf("field order changed canonical form: %s vs %s", x, y)
	}
	kx, _ := KeyOf("salt", ab{A: 7, B: 0.06})
	ky, _ := KeyOf("salt", ba{B: 0.06, A: 7})
	if kx != ky {
		t.Errorf("field order changed key: %s vs %s", kx, ky)
	}
}

func TestKeyOfSaltPartitions(t *testing.T) {
	a, err := KeyOf("engine-v1", map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := KeyOf("engine-v2", map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("different salts produced the same key")
	}
	if len(a) != 64 || strings.ToLower(string(a)) != string(a) {
		t.Errorf("key %q is not lowercase hex sha256", a)
	}
}

func TestStorePutGetReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results", "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := KeyOf("t", "one")
	k2, _ := KeyOf("t", "two")
	if err := s.Put(k1, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	// Identical re-put is a no-op; a changed value supersedes.
	if err := s.Put(k1, json.RawMessage(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, json.RawMessage(`{"v":22}`)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 0 {
		t.Errorf("clean file recovered %d lines", r.Recovered())
	}
	if v, ok := r.Get(k1); !ok || string(v) != `{"v":1}` {
		t.Errorf("k1 = %s, %v", v, ok)
	}
	if v, ok := r.Get(k2); !ok || string(v) != `{"v":22}` {
		t.Errorf("k2 = %s, %v (want superseding record to win)", v, ok)
	}
}

// TestStoreRecoversTruncatedTail simulates a crash mid-append: the final
// record is torn. Open must keep every complete record, drop the tail, and
// leave a clean file behind.
func TestStoreRecoversTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		keys[i], _ = KeyOf("t", i)
		if err := s.Put(keys[i], json.RawMessage(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovered() != 1 {
		t.Errorf("Recovered = %d, want 1", r.Recovered())
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d, want 2", r.Len())
	}
	if _, ok := r.Get(keys[2]); ok {
		t.Error("torn record survived recovery")
	}
	// The store stays writable after recovery, and the rewritten file reads
	// back cleanly.
	if err := r.Put(keys[2], json.RawMessage(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	rr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	if rr.Recovered() != 0 || rr.Len() != 3 {
		t.Errorf("after recovery+put: recovered %d, len %d, want 0, 3", rr.Recovered(), rr.Len())
	}
}

// TestStoreRecoversCorruptLine checks a line corrupted in place is dropped
// while the valid records around it survive.
func TestStoreRecoversCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	k1, _ := KeyOf("t", 1)
	k2, _ := KeyOf("t", 2)
	lines := []string{
		fmt.Sprintf(`{"key":%q,"value":{"v":1}}`, k1),
		`{"key":"zz","value":garbage}`,
		fmt.Sprintf(`{"key":%q,"value":{"v":2}}`, k2),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Recovered() != 1 {
		t.Errorf("Recovered = %d, want 1", s.Recovered())
	}
	for _, k := range []Key{k1, k2} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("valid record %s lost during recovery", k)
		}
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k, _ := KeyOf("t", [2]int{w, i})
				if err := s.Put(k, json.RawMessage(fmt.Sprintf(`{"w":%d,"i":%d}`, w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 0 || r.Len() != 160 {
		t.Errorf("recovered %d, len %d, want 0, 160", r.Recovered(), r.Len())
	}
}

// TestStoreConcurrentReadMostly pins the read-mostly concurrency contract
// documented in the package comment: many goroutines Get concurrently while
// one writer appends, with no torn reads and no lost records. Run under
// -race by the CI race job.
func TestStoreConcurrentReadMostly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const preload = 64
	keys := make([]Key, preload)
	for i := range keys {
		keys[i], _ = KeyOf("warm", i)
		if err := s.Put(keys[i], json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}

	const newRecords = 100
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(r*131+i)%preload]
				v, ok := s.Get(k)
				if !ok {
					t.Errorf("reader %d: preloaded key %s missing", r, k)
					return
				}
				want := fmt.Sprintf(`{"i":%d}`, (r*131+i)%preload)
				if string(v) != want {
					t.Errorf("reader %d: %s = %s, want %s", r, k, v, want)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < newRecords; i++ {
			k, _ := KeyOf("fresh", i)
			if err := s.Put(k, json.RawMessage(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
				t.Error(err)
				return
			}
			// Identical re-put of a warm key exercises the no-op path readers
			// race against.
			if err := s.Put(keys[i%preload], json.RawMessage(fmt.Sprintf(`{"i":%d}`, i%preload))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	if s.Len() != preload+newRecords {
		t.Errorf("Len = %d, want %d", s.Len(), preload+newRecords)
	}
	s.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Recovered() != 0 || r.Len() != preload+newRecords {
		t.Errorf("reopen: recovered %d, len %d, want 0, %d", r.Recovered(), r.Len(), preload+newRecords)
	}
}
