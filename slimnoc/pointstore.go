package slimnoc

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/sim"
	"repro/slimnoc/store"
)

// EngineVersion identifies the simulator-core generation; see
// sim.EngineVersion. It participates in every PointKey so a result store
// written by one engine generation is never served to another.
const EngineVersion = sim.EngineVersion

// pointKeySalt versions both the stored record schema (the Result JSON) and
// the engine that produced it. Bump the schema component when Result's
// serialized form changes incompatibly; the engine component moves with
// sim.EngineVersion.
const pointKeySalt = "slimnoc.Result/v1|engine=" + EngineVersion

// PointKey returns the content address of one campaign point: the SHA-256
// of the canonical-JSON form of the normalized spec with its network
// expanded (ExpandNetwork, like the campaign's own network cache), salted
// with the store schema and engine versions. Two specs that describe the
// same run — regardless of JSON field order, defaulted fields spelled out
// or omitted, name casing or alias, or a preset versus its explicit
// parameters — share one key. The Name label is excluded from the hash: it
// never affects execution, so a store computed by one sweep serves every
// later sweep or figure that contains the same physical point under a
// different label. Hashing the expanded network also means a preset
// redefinition changes keys instead of serving stale results under the
// unchanged preset name. The canonical bytes and hashes are pinned by
// golden fixtures (testdata/pointkey_golden.json): a spec-schema change
// that silently reshapes keys fails CI instead of quietly orphaning stored
// results.
func PointKey(spec RunSpec) (store.Key, error) {
	n := spec.Normalized()
	n.Name = ""
	expanded, err := ExpandNetwork(n.Network)
	if err != nil {
		return "", err
	}
	n.Network = expanded
	return store.KeyOf(pointKeySalt, n)
}

// WithStore attaches a content-addressed result store to the campaign,
// making it resumable: before executing a point the campaign looks up its
// PointKey and serves a stored Result instead of simulating (the point
// emits with Cached set), and every freshly completed point is durably
// appended to the store before its result is reported. Interrupting a
// campaign therefore loses only in-flight points — rerunning the same sweep
// against the same store completes the missing ones and returns a result
// set byte-identical to an uninterrupted run (pinned by
// TestCampaignStoreResumeIdentity).
//
// Cached results are decoded from JSON, so their Raw simulator block
// (Result.Raw, excluded from serialization) is zero; consumers of Raw
// should run without a store. A store may be shared across campaigns and
// sweeps: keys hash the full point identity, so only genuinely identical
// points are deduplicated. Failed or cancelled points are never stored.
//
// WithStore and WithPointOptions are mutually exclusive in effect: a
// point's key hashes only its declarative spec, and per-point options
// (custom sources, replacement networks, adaptive policies) change what a
// run computes without changing its spec. A campaign with point options
// therefore bypasses the store entirely — every point simulates, nothing
// is served or persisted — rather than risk serving or storing results
// under a key that does not describe them.
func WithStore(st *store.Store) CampaignOption {
	return func(c *Campaign) { c.store = st }
}

// execPoint runs one point through the store, when attached: a hit is
// served as-is, a miss is simulated and persisted. Undecodable stored
// values (schema drift) are treated as misses and superseded.
func (c *Campaign) execPoint(ctx context.Context, i int, spec RunSpec, cache *netCache, engineJobs int) (*Result, bool, error) {
	var key store.Key
	if c.store != nil && c.pointOpts == nil {
		k, kerr := PointKey(spec)
		if kerr != nil {
			// An unhashable spec cannot be stored or resumed; failing the
			// point loudly beats silently breaking the resume contract (the
			// run itself would reject the same malformed spec anyway).
			return nil, false, fmt.Errorf("slimnoc: store: point key: %w", kerr)
		}
		key = k
		if raw, ok := c.store.Get(k); ok {
			var res Result
			if jerr := json.Unmarshal(raw, &res); jerr == nil {
				// The stored Spec carries the label of whichever sweep
				// computed the point first; restore the requested one so a
				// resumed or cross-sweep hit is indistinguishable from a
				// fresh run.
				res.Spec = spec
				return &res, true, nil
			}
		}
	}
	res, err := c.runPoint(ctx, i, spec, cache, engineJobs)
	if err == nil && key != "" {
		raw, serr := json.Marshal(res)
		if serr == nil {
			serr = c.store.Put(key, raw)
		}
		if serr != nil {
			// The simulation succeeded but durability failed: surface it,
			// or an "interrupted" campaign would silently not resume.
			return res, false, fmt.Errorf("slimnoc: store: %w", serr)
		}
	}
	return res, false, err
}
