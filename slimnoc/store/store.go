// Package store is a content-addressed, append-only result store for
// campaign points. Records are addressed by a Key — the SHA-256 of a salt
// plus the canonical-JSON form of the record's identity value (for
// campaigns: the fully expanded RunSpec and the engine version, see
// slimnoc.PointKey) — and persisted as one JSON line each, so a store file
// is both crash-tolerant and trivially inspectable with line tools.
//
// The durability contract is what makes campaigns resumable: Put appends
// and syncs a record before returning, Open replays the file and recovers
// from a torn or corrupted tail (dropping only unreadable lines), and a key
// present in the store is served instead of recomputed. Because keys hash
// the complete point identity, a store can be shared by any number of
// sweeps and figures — identical points are computed once, and results
// from an incompatible engine generation never collide with current ones
// (the engine version participates in the hash).
//
// # Replay
//
// Put writes each record as the line
//
//	{"key":"<key>","value":<value>}
//
// with the value compacted by encoding/json. Open reads a line of exactly
// that shape in one pass over the file, without a decoder: it slices out
// the key and the value and checks the value with json.Valid. Any other
// line — extra whitespace, reordered or extra members, an escaped key — is
// handed to the generic decoder, so a hand-edited or foreign line is read
// as before; a line is dropped only when both readers reject it. The
// values Get returns after Open alias the replayed file's bytes, which the
// Store keeps for its lifetime.
//
// # Concurrency
//
// A Store is safe for concurrent use by any number of goroutines: every
// operation serializes on one internal mutex, so readers see either the
// state before a concurrent Put or the state after it, never a torn
// record. The intended access pattern is read-mostly — many goroutines
// Get cached results while an occasional writer Puts new ones (a campaign
// filling in missing points, a serve session caching a fresh estimate) —
// and that pattern is pinned under the race detector by
// TestStoreConcurrentReadMostly. Puts are durable before they are visible:
// a Get can only return a value that has already been synced to disk.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Key is the content address of one record: the lowercase-hex SHA-256 of
// the salted canonical identity bytes. Keys are comparable and safe to use
// as map keys and file names.
type Key string

// KeyOf computes the content address of v under the given salt. The salt
// partitions the key space (e.g. by engine version or record schema) so
// values hashed under different salts can never alias. The hash input is
//
//	salt '\n' canonical(v)
//
// with canonical as defined by Canonical: field order never matters, so a
// struct reordering cannot silently change keys (pinned by the golden
// fixtures in the slimnoc package).
func KeyOf(salt string, v any) (Key, error) {
	data, err := Canonical(v)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{'\n'})
	h.Write(data)
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// record is the JSONL on-disk form of one store entry.
type record struct {
	Key   Key             `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Store is a JSONL-backed key-value store of computed results. It is safe
// for concurrent use: campaign workers Put from multiple goroutines while
// others Get. A Store holds its file open for appending until Close.
type Store struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	index     map[Key]json.RawMessage
	recovered int
	// size is the byte length of the durable, fully terminated records —
	// the rollback point when an append fails partway.
	size int64
}

// Open loads (or creates) the store at path, replaying its JSONL records
// into memory. Lines that fail to parse — a tail torn by a crash mid-append,
// or corruption — are dropped and counted in Recovered, and the file is
// compacted to its valid records so subsequent appends stay readable. When
// the same key appears on multiple lines the last one wins. Replay is one
// pass over the file's bytes (see the package doc): lines are split in place
// on '\n', and a trailing '\r' is dropped as bufio.ScanLines does.
func Open(path string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", path, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s := &Store{path: path, index: make(map[Key]json.RawMessage, bytes.Count(data, newline))}
	// valid is the compacted file, built only once a line is dropped: the
	// lines before the first drop are all kept, so it starts as their
	// non-blank copy and grows by each later kept line.
	var valid []byte
	for start := 0; start < len(data); {
		line, _, terminated := bytes.Cut(data[start:], newline)
		lineStart := start
		start += len(line) + 1
		line = bytes.TrimSuffix(line, []byte{'\r'})
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		key, value, ok := parseRecord(line)
		if !ok || !terminated {
			// An unreadable line is dropped. So is a final line without its
			// newline: a torn append, whose bytes may be a prefix of a longer
			// record that happens to parse. The point is simply recomputed.
			if s.recovered == 0 {
				valid = keptLines(data[:lineStart])
			}
			s.recovered++
			continue
		}
		s.index[key] = value
		if s.recovered > 0 {
			valid = append(append(valid, line...), '\n')
		}
	}
	s.size = int64(len(data))
	if s.recovered > 0 {
		// Compact away the unreadable lines so the next reader sees a clean
		// file. Write-then-rename keeps the store valid even if this
		// recovery itself is interrupted.
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, valid, 0o644); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", path, err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, fmt.Errorf("store: recovering %s: %w", path, err)
		}
		s.size = int64(len(valid))
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	s.f = f
	return s, nil
}

var newline = []byte{'\n'}

// parseRecord reads one non-blank line, with its '\r' already dropped. A
// line of Put's shape whose value is one JSON document is sliced apart; any
// other line goes to json.Unmarshal, so both readers accept the same lines
// and return the same key and value.
func parseRecord(line []byte) (Key, json.RawMessage, bool) {
	if key, v, ok := cutPutLine(line); ok && json.Valid(v) {
		return Key(key), v[:len(v):len(v)], true
	}
	var r record
	if err := json.Unmarshal(line, &r); err != nil || r.Key == "" || len(r.Value) == 0 {
		return "", nil, false
	}
	return r.Key, r.Value, true
}

// cutPutLine splits a line of the exact shape Put writes,
// {"key":"<key>","value":<value>}, into its key and value. It accepts only a
// non-empty key of printable ASCII without '"' or '\\', whose bytes are its
// decoded form, and a value that neither starts nor ends with whitespace,
// which, if it is one JSON document, is byte for byte what the decoder
// returns.
func cutPutLine(line []byte) (key, value []byte, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"key":"`))
	n := 0
	for n < len(rest) && rest[n] >= 0x20 && rest[n] <= 0x7e && rest[n] != '"' && rest[n] != '\\' {
		n++
	}
	if !ok || n == 0 {
		return nil, nil, false
	}
	value, ok = bytes.CutPrefix(rest[n:], []byte(`","value":`))
	if ok {
		value, ok = bytes.CutSuffix(value, []byte{'}'})
	}
	if !ok || len(value) == 0 || isSpace(value[0]) || isSpace(value[len(value)-1]) {
		return nil, nil, false
	}
	return rest[:n], value, true
}

// isSpace reports whether c is JSON insignificant whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// keptLines returns the non-blank lines of data, each with its '\r' dropped
// and ended by '\n': the compacted form of lines that replay all kept.
func keptLines(data []byte) []byte {
	var out []byte
	for line := range bytes.Lines(data) {
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, newline), []byte{'\r'})
		if len(bytes.TrimSpace(line)) > 0 {
			out = append(append(out, line...), '\n')
		}
	}
	return out
}

// Get returns the stored value for key, if present. The returned bytes are
// shared — callers must not modify them.
func (s *Store) Get(key Key) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.index[key]
	return v, ok
}

// Put stores value under key, appending one durable JSONL record. A put of
// bytes identical to the stored value is a no-op, so re-running a fully
// cached campaign never grows the file; a put of different bytes appends a
// superseding record (last record wins on replay).
func (s *Store) Put(key Key, value json.RawMessage) error {
	if key == "" {
		return fmt.Errorf("store: put with empty key")
	}
	line, err := json.Marshal(record{Key: key, Value: value})
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.index[key]; ok && bytes.Equal(old, value) {
		return nil
	}
	if s.f == nil {
		return fmt.Errorf("store: put on closed or failed store %s", s.path)
	}
	rec := append(line, '\n')
	_, werr := s.f.Write(rec)
	if werr == nil {
		werr = s.f.Sync()
	}
	if werr != nil {
		// A short write may have left an unterminated partial line, and an
		// unsynced record is not durable either way: roll the file back to
		// the last durable record so later appends do not merge onto
		// leftover bytes (and so size stays in lockstep with the file). If
		// even the rollback fails, poison the store: further Puts error
		// instead of silently reporting unrecoverable records as stored.
		if terr := s.f.Truncate(s.size); terr != nil {
			s.f.Close()
			s.f = nil
		}
		return fmt.Errorf("store: put: %w", werr)
	}
	s.size += int64(len(rec))
	s.index[key] = append(json.RawMessage(nil), value...)
	return nil
}

// Len returns the number of distinct keys currently stored.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Recovered returns how many unreadable lines Open dropped while replaying
// the file — nonzero after recovering from a crash mid-append.
func (s *Store) Recovered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Close releases the append handle. Get keeps working on the in-memory
// index; Put fails after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
