package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// serveStdio replays the scripted protocol session through run's stdio
// transport against the given store and returns the response lines.
func serveStdio(t *testing.T, storeDir string, reqs []byte) []string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-store", storeDir}, bytes.NewReader(reqs), &stdout, &stderr); code != 0 {
		t.Fatalf("snserve exited %d:\n%s", code, stderr.String())
	}
	return strings.SplitAfter(stdout.String(), "\n")
}

// TestStdioColdGoldenWarmCached replays the scripted session: cold against
// a fresh store it must reproduce the protocol golden byte for byte, and
// warm it must answer every line identically except the stats line, which
// reports that nothing was simulated.
func TestStdioColdGoldenWarmCached(t *testing.T) {
	reqs, err := os.ReadFile(filepath.Join("..", "..", "slimnoc", "serve", "testdata", "protocol_requests.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "slimnoc", "serve", "testdata", "protocol_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	cold := serveStdio(t, storeDir, reqs)
	if got := strings.Join(cold, ""); got != string(golden) {
		t.Fatalf("cold session differs from the golden:\n%s", got)
	}
	warm := serveStdio(t, storeDir, reqs)
	if len(warm) != len(cold) {
		t.Fatalf("warm session answered %d lines, cold %d", len(warm), len(cold))
	}
	stats := 0
	for i := range cold {
		if strings.Contains(warm[i], `"op":"stats"`) {
			stats++
			if !strings.Contains(warm[i], `"simulated":0,`) {
				t.Errorf("warm stats line simulated: %s", warm[i])
			}
			continue
		}
		if warm[i] != cold[i] {
			t.Errorf("warm line %d = %s, cold %s", i, warm[i], cold[i])
		}
	}
	if stats != 1 {
		t.Errorf("%d stats lines, want 1", stats)
	}
}

func TestUnexpectedArgument(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"requests.jsonl"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2:\n%s", code, stderr.String())
	}
}
