package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// referenceReplay is the generic replay Open must agree with: every line
// scanned by bufio.ScanLines and decoded by json.Unmarshal. It returns the
// index, the number of dropped lines and the file Open leaves behind.
func referenceReplay(data []byte) (map[Key]json.RawMessage, int, []byte, error) {
	index := make(map[Key]json.RawMessage)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data)+1)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		return nil, 0, nil, err
	}
	complete := bytes.HasSuffix(data, []byte{'\n'})
	recovered := 0
	var valid bytes.Buffer
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil || r.Key == "" || len(r.Value) == 0 ||
			(i == len(lines)-1 && !complete) {
			recovered++
			continue
		}
		index[r.Key] = r.Value
		valid.Write(line)
		valid.WriteByte('\n')
	}
	if recovered == 0 {
		return index, 0, data, nil
	}
	return index, recovered, valid.Bytes(), nil
}

// FuzzOpenMatchesReplay checks Open against referenceReplay on arbitrary
// store files: the same keys and values, the same count of dropped lines,
// and the same compacted file.
func FuzzOpenMatchesReplay(f *testing.F) {
	putLine, _ := json.Marshal(record{Key: "3f2a", Value: json.RawMessage(`{"v":[1,2.50,"x"]}`)})
	for _, seed := range []string{
		string(putLine) + "\n",
		`{ "value":{"v":1}, "key":"k" }` + "\n",
		`{"key":"k","value":1,"x":2}` + "\n",
		`{"key":"a\"b","value":1}` + "\n",
		`{"key":"k","value":{"v":1}}` + "\r\n" + `{"key":"j","value":2}` + "\r\n",
		`{"key":"zz","value":garbage}` + "\n" + string(putLine) + "\n",
		`{"key":"k","value":1}` + "\n" + `{"key":"k","value":2}` + "\n",
		"\n  \n" + string(putLine) + "\n\n",
		string(putLine) + "\n" + string(putLine[:len(putLine)-5]),
		`{"key":"k","value":1 }` + "\n",
		`{"key":"k","value":null}` + "\n",
		`{"key":"","value":1}` + "\n",
		`{"key":"k","value":1,"key":"j"}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wantIndex, wantRecovered, wantFile, err := referenceReplay(data)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.Len() != len(wantIndex) {
			t.Errorf("Len = %d, want %d", s.Len(), len(wantIndex))
		}
		for k, want := range wantIndex {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, want) {
				t.Errorf("Get(%q) = %q, %v; want %q", k, got, ok, want)
			}
		}
		if s.Recovered() != wantRecovered {
			t.Errorf("Recovered = %d, want %d", s.Recovered(), wantRecovered)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, wantFile) {
			t.Errorf("file after Open = %q, want %q", file, wantFile)
		}
	})
}

// TestOpenAllocs pins the one-pass replay: reopening a store that Put
// wrote costs fewer than two allocations per record, where decoding each
// record and copying its line cost about ten.
func TestOpenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are its own")
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const records = 60
	for i := 0; i < records; i++ {
		k, _ := KeyOf("t", i)
		v := fmt.Sprintf(`{"spec":{"name":"p%d","load":0.06},"metrics":{"latency":%d.25,"hops":[1,2,3]}}`, i, 20+i)
		if err := s.Put(k, json.RawMessage(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	allocs := testing.AllocsPerRun(20, func() {
		r, err := Open(path)
		if err != nil || r.Len() != records || r.Recovered() != 0 {
			t.Fatalf("reopen: %v, len %d, recovered %d", err, r.Len(), r.Recovered())
		}
		r.Close()
	})
	if allocs >= 2*records {
		t.Errorf("Open of %d records: %.0f allocs, want fewer than %d", records, allocs, 2*records)
	}
}

// TestOpenLongRecord reopens a store holding one record longer than 64 MiB,
// which Put accepts: replay has no line-length limit.
func TestOpenLongRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 65 MiB store")
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	chunk := strings.Repeat("a", 1<<20)
	fmt.Fprint(f, `{"key":"long","value":"`)
	for i := 0; i < 65; i++ {
		f.WriteString(chunk)
	}
	fmt.Fprintln(f, `"}`)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if v, ok := s.Get("long"); !ok || len(v) != 65<<20+2 || s.Recovered() != 0 {
		t.Errorf("long record: found %v, %d bytes, recovered %d", ok, len(v), s.Recovered())
	}
}
