package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// Canonical renders v as canonical JSON: the encoding/json serialization of
// v re-encoded with object keys sorted lexicographically, no insignificant
// whitespace, and numbers preserved verbatim (no float round trip). Two
// values that marshal to semantically equal JSON documents — regardless of
// struct field declaration order or map iteration order — yield identical
// canonical bytes, which is what makes hashes of those bytes stable
// content addresses (see KeyOf).
func Canonical(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: canonicalizing: %w", err)
	}
	return canonicalizeJSON(data)
}

// canonicalizeJSON re-encodes one JSON document in canonical form (sorted
// object keys, compact, numbers verbatim). It rejects documents with
// trailing data so a canonical form is always a single value.
func canonicalizeJSON(data []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("store: canonicalizing: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("store: canonicalizing: trailing data after JSON value")
	}
	var buf bytes.Buffer
	if err := writeCanonical(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeCanonical emits one decoded JSON value in canonical form.
func writeCanonical(buf *bytes.Buffer, v any) error {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				return err
			}
			buf.Write(kb)
			buf.WriteByte(':')
			if err := writeCanonical(buf, x[k]); err != nil {
				return err
			}
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			if err := writeCanonical(buf, e); err != nil {
				return err
			}
		}
		buf.WriteByte(']')
	case json.Number:
		// The decoder's verbatim token: no float64 round trip, so 0.24
		// stays "0.24" and large int64 seeds keep every digit.
		buf.WriteString(x.String())
	default:
		// Strings, booleans and null re-encode losslessly.
		b, err := json.Marshal(x)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	return nil
}
